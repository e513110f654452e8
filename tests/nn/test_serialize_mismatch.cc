/**
 * @file
 * Mismatch diagnostics of the module checkpoint format
 * (nn/serialize.h): loading a checkpoint into a structurally
 * different module must fail with an error listing EVERY offending
 * entry — in both directions (checkpoint smaller than module, module
 * smaller than checkpoint) — and must leave the module untouched.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/serialize.h"
#include "tensor/random.h"

using namespace aib;

namespace {

/** Two linear layers with distinct parameter names. */
class TwoLayerNet : public nn::Module
{
  public:
    explicit TwoLayerNet(Rng &rng) : a_(3, 4, rng), b_(4, 2, rng)
    {
        registerModule("a", &a_);
        registerModule("b", &b_);
    }

    nn::Linear a_, b_;
};

/** One of TwoLayerNet's layers, plus a layer it does not have. */
class DifferentNet : public nn::Module
{
  public:
    explicit DifferentNet(Rng &rng) : a_(3, 4, rng), c_(4, 5, rng)
    {
        registerModule("a", &a_);
        registerModule("c", &c_);
    }

    nn::Linear a_, c_;
};

/** Same names as TwoLayerNet but a different shape for "b". */
class WrongShapeNet : public nn::Module
{
  public:
    explicit WrongShapeNet(Rng &rng) : a_(3, 4, rng), b_(4, 7, rng)
    {
        registerModule("a", &a_);
        registerModule("b", &b_);
    }

    nn::Linear a_, b_;
};

std::vector<float>
flatParams(const nn::Module &m)
{
    std::vector<float> out;
    for (const auto &p : m.namedParameters())
        out.insert(out.end(), p.tensor.data(),
                   p.tensor.data() + p.tensor.numel());
    return out;
}

std::string
serialized(const nn::Module &m)
{
    std::ostringstream out;
    nn::writeModuleState(m, out);
    return out.str();
}

TEST(SerializeMismatchTest, MatchingModuleRoundTrips)
{
    Rng rngA(1), rngB(2);
    TwoLayerNet a(rngA), b(rngB);
    std::istringstream in(serialized(a));
    nn::readModuleState(b, in);
    EXPECT_EQ(flatParams(a), flatParams(b));
}

TEST(SerializeMismatchTest, CheckpointFromDifferentModuleListsAllProblems)
{
    // Checkpoint has a.{weight,bias}, c.{weight,bias}; the module
    // expects a.{weight,bias}, b.{weight,bias}: "b" entries are
    // missing from the checkpoint AND "c" entries are unexpected.
    Rng rngA(1), rngB(2);
    DifferentNet saved(rngA);
    TwoLayerNet live(rngB);
    const std::vector<float> before = flatParams(live);

    std::istringstream in(serialized(saved));
    try {
        nn::readModuleState(live, in);
        FAIL() << "expected mismatch error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("does not match"), std::string::npos) << msg;
        EXPECT_NE(msg.find("missing from checkpoint"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'b.weight'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'b.bias'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("unexpected in checkpoint"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'c.weight'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'c.bias'"), std::string::npos) << msg;
    }
    // Validation happens before any mutation.
    EXPECT_EQ(flatParams(live), before);
}

TEST(SerializeMismatchTest, ReverseDirectionAlsoListsAllProblems)
{
    // Mirror image: checkpoint from TwoLayerNet into DifferentNet.
    Rng rngA(1), rngB(2);
    TwoLayerNet saved(rngA);
    DifferentNet live(rngB);

    std::istringstream in(serialized(saved));
    try {
        nn::readModuleState(live, in);
        FAIL() << "expected mismatch error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("missing from checkpoint"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'c.weight'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("unexpected in checkpoint"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'b.weight'"), std::string::npos) << msg;
    }
}

TEST(SerializeMismatchTest, ShapeMismatchNamesBothShapes)
{
    Rng rngA(1), rngB(2);
    TwoLayerNet saved(rngA);
    WrongShapeNet live(rngB);

    std::istringstream in(serialized(saved));
    try {
        nn::readModuleState(live, in);
        FAIL() << "expected shape mismatch error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("shape mismatch"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("'b.weight'"), std::string::npos) << msg;
    }
}

TEST(SerializeMismatchTest, BadMagicIsRejected)
{
    Rng rng(1);
    TwoLayerNet net(rng);
    std::istringstream in("WRONGMAG rest of stream");
    EXPECT_THROW(nn::readModuleState(net, in), std::runtime_error);
}

template <typename T>
void
put(std::string &out, T v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/**
 * A module-state stream whose parameter section holds one entry
 * "a.weight" of @p dims followed by @p payload bytes, and whose
 * buffer section is empty.
 */
std::string
stateWithEntry(const std::vector<std::int64_t> &dims,
               std::size_t payload = 64, std::uint32_t name_len = 8)
{
    std::string out = "AIBCKPT2";
    put<std::uint32_t>(out, 1);
    put<std::uint32_t>(out, name_len);
    out += std::string("a.weight").substr(0, name_len);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(dims.size()));
    for (std::int64_t d : dims)
        put<std::int64_t>(out, d);
    out.append(payload, '\0');
    put<std::uint32_t>(out, 0);
    return out;
}

/** readModuleState of @p bytes into a TwoLayerNet; the error text. */
std::string
loadError(const std::string &bytes)
{
    Rng rng(1);
    TwoLayerNet net(rng);
    const std::vector<float> before = flatParams(net);
    std::istringstream in(bytes);
    std::string msg;
    try {
        nn::readModuleState(net, in);
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    EXPECT_EQ(flatParams(net), before);
    return msg;
}

TEST(SerializeMismatchTest, NegativeDimensionIsACheckpointError)
{
    const std::string msg = loadError(stateWithEntry({4, -1}));
    EXPECT_NE(msg.find("negative dimension -1"), std::string::npos)
        << msg;
}

TEST(SerializeMismatchTest, HugeDimensionIsRejectedBeforeAllocating)
{
    // 2^40 floats (4 TiB) claimed, 64 bytes present.
    const std::string msg = loadError(stateWithEntry({std::int64_t{1} << 40}));
    EXPECT_NE(msg.find("remain"), std::string::npos) << msg;
}

TEST(SerializeMismatchTest, OverflowingElementCountIsRejected)
{
    const std::int64_t big = std::int64_t{1} << 40;
    const std::string msg = loadError(stateWithEntry({big, big, big}));
    EXPECT_NE(msg.find("overflows"), std::string::npos) << msg;
}

TEST(SerializeMismatchTest, OversizedNameIsRejectedBeforeAllocating)
{
    // The name claims 4 GiB - 1 bytes; the stream ends long before.
    const std::string msg =
        loadError(stateWithEntry({4}, 64, 0xFFFFFFFFu));
    EXPECT_NE(msg.find("remain"), std::string::npos) << msg;
}

TEST(SerializeMismatchTest, ZeroSizedDimensionStillLoadsAsAMismatch)
{
    // A well-formed empty entry is read and then reported by name.
    const std::string msg = loadError(stateWithEntry({0, 4}, 0));
    EXPECT_NE(msg.find("'a.weight'"), std::string::npos) << msg;
}

} // namespace
