/**
 * @file
 * Forward structural analyses over the CFG: dominators and natural
 * loops.
 *
 * The postdominators in cfg.hh give the CD models and Levo each
 * branch's join; the *forward* direction serves the static-analysis
 * pass (src/analysis): the program verifier, the profile
 * cross-checker and the abstract interpreter need to know which
 * blocks are loop headers, how deeply loops nest, and which code is
 * structurally reachable. Same iterative
 * Cooper-Harvey-Kennedy scheme as computePostdominators(), run on the
 * forward CFG from block 0.
 *
 * Natural loops are discovered from back edges t -> h where h
 * dominates t; the loop body is everything that reaches the latch t
 * without passing the header h. Loops sharing a header are merged
 * (one NaturalLoop per header), matching the classic dragon-book
 * definition.
 */

#ifndef DEE_CFG_STRUCTURE_HH
#define DEE_CFG_STRUCTURE_HH

#include <vector>

#include "cfg/cfg.hh"
#include "isa/isa.hh"

namespace dee
{

/** Forward dominator tree over a Cfg's real blocks (entry: block 0). */
class Dominators
{
  public:
    explicit Dominators(const Cfg &cfg);

    /** Marker for blocks unreachable from the entry. */
    static constexpr BlockId kUnreachable = Cfg::kUnreachable;

    /** Immediate dominator; the entry's idom is itself, unreachable
     *  blocks return kUnreachable. */
    BlockId idom(BlockId b) const;

    /** True if a dominates b (every entry->b path passes a).
     *  Unreachable b is dominated by nothing (false, even for a==b). */
    bool dominates(BlockId a, BlockId b) const;

    /** True if the block is reachable from the entry. */
    bool reachable(BlockId b) const;

  private:
    std::size_t numBlocks_;
    std::vector<BlockId> idom_;
};

/** One natural loop (back edges sharing a header are merged). */
struct NaturalLoop
{
    BlockId header = 0;
    /** Sorted body blocks, header included. */
    std::vector<BlockId> blocks;
    /** Sources of the back edges into the header. */
    std::vector<BlockId> latches;
    /** Nesting depth: 1 for outermost loops, 2 inside one loop, ... */
    int depth = 1;

    bool contains(BlockId b) const;
};

/** All natural loops of a program, with per-block nesting depths. */
class LoopForest
{
  public:
    LoopForest(const Cfg &cfg, const Dominators &doms);

    /** Loops ordered by header block id. */
    const std::vector<NaturalLoop> &loops() const { return loops_; }

    /** Number of loops whose header is not inside another loop. */
    std::size_t numTopLevel() const;

    /** Nesting depth of a block (0: not in any loop). */
    int loopDepth(BlockId b) const;

    /** Deepest nesting in the program (0 for loop-free code). */
    int maxDepth() const;

    /**
     * Headers of every loop containing @p b, ordered outermost first
     * (empty when b is in no loop). This is the nest "stack" the
     * speculation profiler folds branch sites under.
     */
    std::vector<BlockId> enclosingHeaders(BlockId b) const;

  private:
    std::vector<NaturalLoop> loops_;
    std::vector<int> depth_; ///< per block
};

} // namespace dee

#endif // DEE_CFG_STRUCTURE_HH
