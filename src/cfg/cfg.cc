#include "cfg/cfg.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dee
{

Cfg::Cfg(const Program &program) : numBlocks_(program.numBlocks())
{
    dee_assert(numBlocks_ > 0, "Cfg over empty program");
    buildEdges(program);
    computePostdominators();
}

void
Cfg::buildEdges(const Program &program)
{
    const std::size_t n = numBlocks_ + 1; // + virtual exit
    succs_.assign(n, {});
    preds_.assign(n, {});

    auto add_edge = [&](BlockId from, BlockId to) {
        succs_[from].push_back(to);
        preds_[to].push_back(from);
    };

    for (BlockId b = 0; b < numBlocks_; ++b) {
        const BasicBlock &blk = program.block(b);
        if (blk.instrs.empty()) {
            // Empty block: pure fallthrough.
            dee_assert(b + 1 < numBlocks_, "empty final block");
            add_edge(b, b + 1);
            continue;
        }
        const Instruction &last = blk.instrs.back();
        switch (opClass(last.op)) {
          case OpClass::CondBranch:
            add_edge(b, last.target);
            dee_assert(b + 1 < numBlocks_ || last.target < numBlocks_,
                       "branch fallthrough off program end");
            if (b + 1 < numBlocks_)
                add_edge(b, b + 1);
            else
                add_edge(b, exitNode());
            break;
          case OpClass::Jump:
            add_edge(b, last.target);
            break;
          case OpClass::Halt:
            add_edge(b, exitNode());
            break;
          default:
            dee_assert(b + 1 < numBlocks_,
                       "fallthrough off program end (validate missed it)");
            add_edge(b, b + 1);
            break;
        }
    }

    // Deduplicate (a branch whose target equals its fallthrough).
    for (auto &v : succs_) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    for (auto &v : preds_) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }
}

void
Cfg::computePostdominators()
{
    const std::size_t n = numBlocks_ + 1;
    const BlockId exit = exitNode();

    // Reverse post-order of the *reverse* CFG, from the exit node.
    std::vector<BlockId> order; // postorder of reverse CFG
    order.reserve(n);
    std::vector<std::uint8_t> state(n, 0); // 0 new, 1 open, 2 done
    std::vector<std::pair<BlockId, std::size_t>> stack;
    stack.emplace_back(exit, 0);
    state[exit] = 1;
    while (!stack.empty()) {
        auto &[node, idx] = stack.back();
        const auto &edges = preds_[node]; // reverse CFG successor = pred
        if (idx < edges.size()) {
            const BlockId next = edges[idx++];
            if (state[next] == 0) {
                state[next] = 1;
                stack.emplace_back(next, 0);
            }
        } else {
            state[node] = 2;
            order.push_back(node);
            stack.pop_back();
        }
    }
    // order is postorder; reverse it for RPO (exit first).
    std::reverse(order.begin(), order.end());

    std::vector<std::size_t> rpoIndex(n, ~std::size_t{0});
    for (std::size_t i = 0; i < order.size(); ++i)
        rpoIndex[order[i]] = i;

    ipdom_.assign(n, kUnreachable);
    ipdom_[exit] = exit;

    auto intersect = [&](BlockId a, BlockId b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = ipdom_[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = ipdom_[b];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId node : order) {
            if (node == exit)
                continue;
            BlockId new_ipdom = kUnreachable;
            for (BlockId s : succs_[node]) { // reverse-CFG preds = succs
                if (ipdom_[s] == kUnreachable && s != exit)
                    continue; // not yet processed / unreachable
                if (rpoIndex[s] == ~std::size_t{0})
                    continue; // successor cannot reach exit
                if (new_ipdom == kUnreachable)
                    new_ipdom = s;
                else
                    new_ipdom = intersect(new_ipdom, s);
            }
            if (new_ipdom != kUnreachable && ipdom_[node] != new_ipdom) {
                ipdom_[node] = new_ipdom;
                changed = true;
            }
        }
    }
}

BlockId
Cfg::ipostdom(BlockId b) const
{
    dee_assert(b <= numBlocks_, "ipostdom of unknown node ", b);
    return ipdom_[b];
}

bool
Cfg::postdominates(BlockId a, BlockId b) const
{
    // Walk b's postdominator chain looking for a.
    BlockId cur = b;
    while (true) {
        if (cur == a)
            return true;
        if (cur == exitNode() || cur == kUnreachable)
            return a == cur;
        cur = ipdom_[cur];
        if (cur == kUnreachable)
            return false;
    }
}

const std::vector<BlockId> &
Cfg::successors(BlockId b) const
{
    dee_assert(b <= numBlocks_, "successors of unknown node ", b);
    return succs_[b];
}

const std::vector<BlockId> &
Cfg::predecessors(BlockId b) const
{
    dee_assert(b <= numBlocks_, "predecessors of unknown node ", b);
    return preds_[b];
}

} // namespace dee
