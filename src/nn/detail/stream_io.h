/**
 * @file
 * Little-endian binary stream helpers shared by nn/serialize, the
 * optimizer/scheduler state serializers and the session checkpoint
 * container (core/checkpoint). Readers throw on truncation rather
 * than returning garbage.
 */

#ifndef AIB_NN_DETAIL_STREAM_IO_H
#define AIB_NN_DETAIL_STREAM_IO_H

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace aib::nn::detail {

template <typename T>
void
writeRaw(std::ostream &out, T v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
T
readRaw(std::istream &in, const char *what)
{
    T v{};
    in.read(reinterpret_cast<char *>(&v), sizeof(v));
    if (!in)
        throw std::runtime_error(std::string("checkpoint: truncated while reading ") +
                                 what);
    return v;
}

inline void writeU32(std::ostream &out, std::uint32_t v) { writeRaw(out, v); }
inline void writeU64(std::ostream &out, std::uint64_t v) { writeRaw(out, v); }
inline void writeI64(std::ostream &out, std::int64_t v) { writeRaw(out, v); }
inline void writeF32(std::ostream &out, float v) { writeRaw(out, v); }
inline void writeF64(std::ostream &out, double v) { writeRaw(out, v); }

inline std::uint32_t
readU32(std::istream &in, const char *what = "u32")
{
    return readRaw<std::uint32_t>(in, what);
}

inline std::uint64_t
readU64(std::istream &in, const char *what = "u64")
{
    return readRaw<std::uint64_t>(in, what);
}

inline std::int64_t
readI64(std::istream &in, const char *what = "i64")
{
    return readRaw<std::int64_t>(in, what);
}

inline float
readF32(std::istream &in, const char *what = "f32")
{
    return readRaw<float>(in, what);
}

inline double
readF64(std::istream &in, const char *what = "f64")
{
    return readRaw<double>(in, what);
}

/**
 * Throw unless @p bytes more bytes can be read from @p in. Decoders
 * call it with a size taken from the stream before allocating for it,
 * so a corrupt count fails as a checkpoint error, not as a huge
 * allocation. A stream that cannot report its length (not seekable)
 * passes; reading it then fails on truncation as before.
 */
inline void
requireBytes(std::istream &in, std::uint64_t bytes, const char *what)
{
    const std::istream::pos_type here = in.tellg();
    if (here == std::istream::pos_type(-1))
        return;
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.clear();
    in.seekg(here);
    if (end == std::istream::pos_type(-1))
        return;
    const auto left = static_cast<std::uint64_t>(end - here);
    if (bytes > left)
        throw std::runtime_error(
            std::string("checkpoint: ") + what + " claims " +
            std::to_string(bytes) + " bytes but only " +
            std::to_string(left) + " remain");
}

/** requireBytes for @p count elements of @p size bytes each. */
inline void
requireElements(std::istream &in, std::uint64_t count, std::size_t size,
                const char *what)
{
    if (count > UINT64_MAX / size)
        throw std::runtime_error(std::string("checkpoint: ") + what +
                                 " count " + std::to_string(count) +
                                 " overflows");
    requireBytes(in, count * size, what);
}

inline void
writeString(std::ostream &out, const std::string &s)
{
    writeU32(out, static_cast<std::uint32_t>(s.size()));
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string
readString(std::istream &in, const char *what = "string")
{
    const std::uint32_t len = readU32(in, what);
    requireBytes(in, len, what);
    std::string s(len, '\0');
    in.read(s.data(), len);
    if (!in)
        throw std::runtime_error(std::string("checkpoint: truncated while reading ") +
                                 what);
    return s;
}

inline void
writeF32Vec(std::ostream &out, const std::vector<float> &v)
{
    writeU64(out, v.size());
    out.write(reinterpret_cast<const char *>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(float)));
}

inline std::vector<float>
readF32Vec(std::istream &in, const char *what = "f32 vector")
{
    const std::uint64_t n = readU64(in, what);
    requireElements(in, n, sizeof(float), what);
    std::vector<float> v(static_cast<std::size_t>(n));
    in.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(float)));
    if (!in)
        throw std::runtime_error(std::string("checkpoint: truncated while reading ") +
                                 what);
    return v;
}

inline void
writeF64Vec(std::ostream &out, const std::vector<double> &v)
{
    writeU64(out, v.size());
    out.write(reinterpret_cast<const char *>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(double)));
}

inline std::vector<double>
readF64Vec(std::istream &in, const char *what = "f64 vector")
{
    const std::uint64_t n = readU64(in, what);
    requireElements(in, n, sizeof(double), what);
    std::vector<double> v(static_cast<std::size_t>(n));
    in.read(reinterpret_cast<char *>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
    if (!in)
        throw std::runtime_error(std::string("checkpoint: truncated while reading ") +
                                 what);
    return v;
}

} // namespace aib::nn::detail

#endif // AIB_NN_DETAIL_STREAM_IO_H
