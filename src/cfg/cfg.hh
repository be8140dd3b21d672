/**
 * @file
 * Control-flow graph and postdominators.
 *
 * The paper's CD and CD-MF models rest on *reduced* and *minimal* control
 * dependencies (its reference [2], Ferrante/Ottenstein/Warren; and [8],
 * Uht's minimal procedural dependencies). Block X is control dependent
 * on the branch ending block A when X postdominates a successor of A but
 * not A itself, so the dependence region of a branch ends at its
 * immediate postdominator. The CD models (trace/prepared.hh's join
 * points), the Lam-Wilson limits and Levo need only that join, taken
 * per dynamic branch (see DESIGN.md "Simulator semantics"), so this
 * class computes
 *
 *  - the block-level CFG (with a virtual exit node) and
 *  - postdominators (iterative Cooper-Harvey-Kennedy on the reverse CFG),
 *
 * and stores no control-dependence relation.
 */

#ifndef DEE_CFG_CFG_HH
#define DEE_CFG_CFG_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"

namespace dee
{

/** CFG over a Program's basic blocks plus a virtual exit node. */
class Cfg
{
  public:
    /** Builds the CFG; the program must already validate(). */
    explicit Cfg(const Program &program);

    /** Number of real blocks (the virtual exit is not counted). */
    std::size_t numBlocks() const { return numBlocks_; }

    /** Virtual exit node id (== numBlocks()). */
    BlockId exitNode() const { return static_cast<BlockId>(numBlocks_); }

    const std::vector<BlockId> &successors(BlockId b) const;
    const std::vector<BlockId> &predecessors(BlockId b) const;

    /**
     * Immediate postdominator of block b, or exitNode() for blocks whose
     * only postdominator is the exit. The exit node's ipostdom is itself.
     * Blocks that cannot reach the exit have ipostdom == kUnreachable.
     */
    BlockId ipostdom(BlockId b) const;

    /** ipostdom() of every node, the exit node last. */
    const std::vector<BlockId> &ipostdoms() const { return ipdom_; }

    /** Marker for blocks with no path to the exit. */
    static constexpr BlockId kUnreachable = 0xffffffff;

    /** True if a postdominates b (every path b->exit passes a). */
    bool postdominates(BlockId a, BlockId b) const;

  private:
    void buildEdges(const Program &program);
    void computePostdominators();

    std::size_t numBlocks_;
    // Indexed by node id, including the exit node at numBlocks_.
    std::vector<std::vector<BlockId>> succs_;
    std::vector<std::vector<BlockId>> preds_;
    std::vector<BlockId> ipdom_;
};

} // namespace dee

#endif // DEE_CFG_CFG_HH
