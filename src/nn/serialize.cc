#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/detail/stream_io.h"

namespace aib::nn {

namespace {

constexpr char kMagic[8] = {'A', 'I', 'B', 'C', 'K', 'P', 'T', '2'};

struct Entry {
    Shape shape;
    std::vector<float> data;
};

void
writeEntries(std::ostream &out, const std::vector<NamedParam> &entries)
{
    detail::writeU32(out, static_cast<std::uint32_t>(entries.size()));
    for (const NamedParam &p : entries) {
        detail::writeString(out, p.name);
        const Shape &shape = p.tensor.shape();
        detail::writeU32(out, static_cast<std::uint32_t>(shape.size()));
        for (std::int64_t d : shape)
            detail::writeI64(out, d);
        out.write(reinterpret_cast<const char *>(p.tensor.data()),
                  static_cast<std::streamsize>(p.tensor.numel() *
                                               sizeof(float)));
    }
}

std::map<std::string, Entry>
readEntries(std::istream &in, const char *section)
{
    std::map<std::string, Entry> entries;
    const std::uint32_t count = detail::readU32(in, section);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name = detail::readString(in, section);
        const std::uint32_t rank = detail::readU32(in, section);
        Entry e;
        detail::requireElements(in, rank, sizeof(std::int64_t), section);
        e.shape.resize(rank);
        // Checked before anything is sized from them: a negative dim
        // or an element count that overflows or outruns the stream.
        std::uint64_t n = 1;
        for (std::uint32_t d = 0; d < rank; ++d) {
            const std::int64_t dim = detail::readI64(in, section);
            if (dim < 0)
                throw std::runtime_error(
                    "checkpoint: negative dimension " +
                    std::to_string(dim) + " of '" + name + "' in " +
                    section);
            if (dim != 0 && n > UINT64_MAX / static_cast<std::uint64_t>(dim))
                throw std::runtime_error("checkpoint: element count of '" +
                                         name + "' overflows in " + section);
            e.shape[d] = dim;
            n *= static_cast<std::uint64_t>(dim);
        }
        detail::requireElements(in, n, sizeof(float), section);
        e.data.resize(static_cast<std::size_t>(n));
        in.read(reinterpret_cast<char *>(e.data.data()),
                static_cast<std::streamsize>(e.data.size() * sizeof(float)));
        if (!in)
            throw std::runtime_error(
                std::string("checkpoint: truncated data in ") + section);
        if (entries.count(name) != 0)
            throw std::runtime_error("checkpoint: duplicate entry '" + name +
                                     "' in " + section);
        entries.emplace(std::move(name), std::move(e));
    }
    return entries;
}

/**
 * Validate @p saved against the module-side @p live entries and
 * collect every mismatch into @p problems. Matching is by name;
 * entries agreeing in name and shape are appended to @p matched.
 */
void
matchEntries(const std::vector<NamedParam> &live,
             std::map<std::string, Entry> &saved, const char *section,
             std::vector<std::string> &problems,
             std::vector<std::pair<Tensor, const Entry *>> &matched)
{
    for (const NamedParam &p : live) {
        auto it = saved.find(p.name);
        if (it == saved.end()) {
            problems.push_back(std::string("missing from checkpoint (") +
                               section + "): '" + p.name + "' " +
                               shapeToString(p.tensor.shape()));
            continue;
        }
        if (it->second.shape != p.tensor.shape()) {
            problems.push_back(std::string("shape mismatch (") + section +
                               "): '" + p.name + "' module " +
                               shapeToString(p.tensor.shape()) +
                               " vs checkpoint " +
                               shapeToString(it->second.shape));
            continue;
        }
        matched.emplace_back(p.tensor, &it->second);
    }
    std::map<std::string, int> liveNames;
    for (const NamedParam &p : live)
        ++liveNames[p.name];
    for (const auto &[name, entry] : saved) {
        if (liveNames.count(name) == 0)
            problems.push_back(std::string("unexpected in checkpoint (") +
                               section + "): '" + name + "' " +
                               shapeToString(entry.shape));
    }
}

} // namespace

void
writeModuleState(const Module &module, std::ostream &out)
{
    out.write(kMagic, sizeof(kMagic));
    writeEntries(out, module.namedParameters());
    writeEntries(out, module.namedBuffers());
    if (!out)
        throw std::runtime_error("checkpoint: module state write failed");
}

void
readModuleState(Module &module, std::istream &in)
{
    char magic[8] = {};
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error("checkpoint: bad module-state magic");

    auto savedParams = readEntries(in, "parameters");
    auto savedBuffers = readEntries(in, "buffers");

    // Validate everything before mutating anything, so a rejected
    // checkpoint leaves the module untouched.
    std::vector<std::string> problems;
    std::vector<std::pair<Tensor, const Entry *>> matched;
    matchEntries(module.namedParameters(), savedParams, "parameters",
                 problems, matched);
    matchEntries(module.namedBuffers(), savedBuffers, "buffers", problems,
                 matched);
    if (!problems.empty()) {
        std::string msg = "checkpoint: state does not match module (" +
                          std::to_string(problems.size()) + " problem" +
                          (problems.size() == 1 ? "" : "s") + "):";
        for (const std::string &p : problems)
            msg += "\n  " + p;
        throw std::runtime_error(msg);
    }

    for (auto &[tensor, entry] : matched) {
        Tensor t = tensor;
        std::memcpy(t.data(), entry->data.data(),
                    entry->data.size() * sizeof(float));
    }
}

void
saveCheckpoint(const Module &module, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("checkpoint: cannot open " + path);
    writeModuleState(module, out);
    if (!out)
        throw std::runtime_error("checkpoint: write failed for " + path);
}

void
loadCheckpoint(Module &module, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("checkpoint: cannot open " + path);
    readModuleState(module, in);
}

} // namespace aib::nn
