/**
 * @file
 * Control-flow graph and control-dependence analysis.
 *
 * The paper's CD and CD-MF models rest on *reduced* and *minimal* control
 * dependencies (its reference [2], Ferrante/Ottenstein/Warren; and [8],
 * Uht's minimal procedural dependencies). Because this repository
 * generates its own programs, we can compute exact control dependencies:
 *
 *  - the block-level CFG (with a virtual exit node),
 *  - postdominators (iterative Cooper-Harvey-Kennedy on the reverse CFG),
 *  - the control-dependence relation "block X is control dependent on the
 *    branch terminating block A" (X postdominates a successor of A but
 *    not A itself), and
 *  - its transitive closure, matching Levo's "total control dependencies"
 *    (Section 4.3) through chains of control dependencies.
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

    /**
     * Blocks directly control dependent on the branch ending block a
     * (empty unless block a ends in a conditional branch). Sorted.
     */
    const std::vector<BlockId> &controlDependents(BlockId a) const;

    /**
     * Blocks transitively ("totally") control dependent on block a's
     * branch: the closure of controlDependents over chains of control
     * dependencies. Sorted; includes the direct dependents.
     */
    const std::vector<BlockId> &totalControlDependents(BlockId a) const;

    /** True if block x is directly control dependent on block a. */
    bool isControlDependent(BlockId x, BlockId a) const;

    /** True if block x is transitively control dependent on block a. */
    bool isTotalControlDependent(BlockId x, BlockId a) const;

  private:
    void buildEdges(const Program &program);
    void computePostdominators();
    void computeControlDependence(const Program &program);
    void computeTotalControlDependence(const Program &program);

    std::size_t numBlocks_;
    // Indexed by node id, including the exit node at numBlocks_.
    std::vector<std::vector<BlockId>> succs_;
    std::vector<std::vector<BlockId>> preds_;
    std::vector<BlockId> ipdom_;
    std::vector<std::vector<BlockId>> cdeps_;
    std::vector<std::vector<BlockId>> totalCdeps_;
};

} // namespace dee

#endif // DEE_CFG_CFG_HH
