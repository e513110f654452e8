#include "tensor/autograd.h"

#include <atomic>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tensor/graph_capture.h"

namespace aib::autograd {

namespace {

std::atomic<std::size_t> g_live_nodes{0};

} // namespace

namespace detail {

LiveNodeToken::LiveNodeToken() noexcept
{
    g_live_nodes.fetch_add(1, std::memory_order_relaxed);
}

LiveNodeToken::LiveNodeToken(const LiveNodeToken &) noexcept
{
    g_live_nodes.fetch_add(1, std::memory_order_relaxed);
}

LiveNodeToken::~LiveNodeToken()
{
    g_live_nodes.fetch_sub(1, std::memory_order_relaxed);
}

} // namespace detail

std::size_t
liveNodeCount()
{
    return g_live_nodes.load(std::memory_order_relaxed);
}

bool
needsGrad(const Tensor &t)
{
    return t.defined() && (t.requiresGrad() || t.gradFn() != nullptr);
}

bool
anyNeedsGrad(const std::vector<Tensor> &ts)
{
    for (const Tensor &t : ts) {
        if (needsGrad(t))
            return true;
    }
    return false;
}

Tensor
makeOutput(Tensor value, std::string_view name, std::vector<Tensor> inputs,
           std::function<std::vector<Tensor>(const Tensor &)> backward_fn)
{
    const bool attach = gradModeEnabled() && anyNeedsGrad(inputs);
    // Capture sees every op, including tape-less inference-mode ones;
    // this must run before the inputs are moved into the node.
    if (graph::captureActive())
        graph::captureOp(name, inputs, value, attach);
    if (!attach)
        return value;
    auto node = std::make_shared<Node>();
    node->name = name;
    node->inputs = std::move(inputs);
    node->backward = std::move(backward_fn);
    value.setGradFn(std::move(node));
    return value;
}

namespace {

/**
 * Depth-first post-order over the node graph reachable from @p root,
 * so that reversing the result yields a valid topological order for
 * gradient propagation.
 */
void
topoSort(const std::shared_ptr<Node> &root,
         std::vector<std::shared_ptr<Node>> &order)
{
    std::unordered_set<Node *> visited;
    // Iterative DFS to survive deep RNN graphs.
    struct Frame {
        std::shared_ptr<Node> node;
        std::size_t next_input = 0;
    };
    std::vector<Frame> stack;
    if (!root || visited.count(root.get()))
        return;
    visited.insert(root.get());
    stack.push_back({root, 0});
    while (!stack.empty()) {
        Frame &frame = stack.back();
        bool descended = false;
        while (frame.next_input < frame.node->inputs.size()) {
            const Tensor &input = frame.node->inputs[frame.next_input++];
            if (!input.defined())
                continue;
            const auto &fn = input.gradFn();
            if (fn && !visited.count(fn.get())) {
                visited.insert(fn.get());
                stack.push_back({fn, 0});
                descended = true;
                break;
            }
        }
        if (!descended && frame.next_input >= frame.node->inputs.size()) {
            order.push_back(frame.node);
            stack.pop_back();
        }
    }
}

/**
 * acc += g. A slot holds the gradient tensor a backward closure
 * returned, not a copy, and a closure may hand one tensor to several
 * inputs or keep it; so the add is in place only while no other handle
 * shares acc's storage, and otherwise writes acc + g into a fresh
 * tensor. Both paths perform the same float add per element.
 */
void
accumulateInto(Tensor &acc, const Tensor &g)
{
    const float *src = g.data();
    const std::int64_t n = acc.numel();
    if (acc.impl().use_count() == 1) {
        float *dst = acc.data();
        for (std::int64_t k = 0; k < n; ++k)
            dst[k] += src[k];
        return;
    }
    Tensor sum = Tensor::empty(acc.shape());
    const float *prev = acc.data();
    float *dst = sum.data();
    for (std::int64_t k = 0; k < n; ++k)
        dst[k] = prev[k] + src[k];
    acc = std::move(sum);
}

} // namespace

void
backward(const Tensor &root, const Tensor &grad)
{
    if (!root.defined())
        throw std::logic_error("autograd::backward: undefined root");
    // Registers the root with any active capture and tags ops run by
    // the gradient closures below with the backward phase.
    graph::detail::BackwardScope backward_scope(root);
    if (!root.gradFn()) {
        if (root.requiresGrad())
            root.impl()->grad = grad.impl();
        return;
    }

    // Gradient computations must not record new autograd nodes.
    NoGradGuard no_grad;

    std::vector<std::shared_ptr<Node>> order;
    topoSort(root.gradFn(), order);

    // Accumulated gradient of each node's output tensor.
    std::unordered_map<Node *, Tensor> node_grads;
    node_grads[root.gradFn().get()] = grad;

    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node *node = it->get();
        auto found = node_grads.find(node);
        if (found == node_grads.end())
            continue; // Unreachable from the seed (no gradient flows).
        Tensor out_grad = found->second;
        node_grads.erase(found);

        std::vector<Tensor> input_grads = node->backward(out_grad);
        if (input_grads.size() != node->inputs.size()) {
            throw std::logic_error(
                std::string("autograd: backward of '") +
                std::string(node->name) +
                "' returned wrong number of gradients");
        }
        for (std::size_t i = 0; i < node->inputs.size(); ++i) {
            const Tensor &input = node->inputs[i];
            Tensor &g = input_grads[i];
            if (!g.defined() || !input.defined())
                continue;
            assert(sameShape(g.shape(), input.shape()));
            const auto &fn = input.gradFn();
            if (fn) {
                auto slot = node_grads.find(fn.get());
                if (slot == node_grads.end())
                    node_grads.emplace(fn.get(), std::move(g));
                else
                    accumulateInto(slot->second, g);
            } else if (input.requiresGrad()) {
                const_cast<Tensor &>(input).accumulateGrad(g);
            }
        }
    }
}

} // namespace aib::autograd
