#include "analysis/absint/absint.hh"

#include <algorithm>
#include <cstddef>
#include <set>

namespace dee::analysis::absint
{

namespace
{

/** r0 always reads zero, whatever the state says; absent operands
 *  (kNoReg, e.g. LoadImm's rs1) read top — the value is never used,
 *  but indexing regs[] with it would be out of bounds. */
Interval
regOf(const RegState &s, RegId r)
{
    if (r == kZeroReg)
        return Interval::val(0);
    if (r >= kNumRegs)
        return Interval::top();
    return s.regs[r];
}

/** The comparison a branch decides, normalized per edge outcome. */
enum class Rel : std::uint8_t
{
    Lt, ///< rs1 <  rs2 on this edge
    Ge, ///< rs1 >= rs2 on this edge
    Eq, ///< rs1 == rs2 on this edge
    Ne, ///< rs1 != rs2 on this edge
};

bool
effectiveRel(Opcode op, bool taken, Rel *out)
{
    switch (op) {
      case Opcode::BranchLt: *out = taken ? Rel::Lt : Rel::Ge; return true;
      case Opcode::BranchGe: *out = taken ? Rel::Ge : Rel::Lt; return true;
      case Opcode::BranchEq: *out = taken ? Rel::Eq : Rel::Ne; return true;
      case Opcode::BranchNe: *out = taken ? Rel::Ne : Rel::Eq; return true;
      default: return false;
    }
}

/** Narrows @p s with "reg a REL reg b"; infeasible meets mark the
 *  state unreachable (the edge cannot be taken). */
void
refineRel(RegState *s, Rel rel, RegId a, RegId b)
{
    Interval va = regOf(*s, a);
    Interval vb = regOf(*s, b);
    std::int64_t t = 0;
    switch (rel) {
      case Rel::Lt:
        if (exactSub(vb.hi, 1, &t))
            va = meet(va, Interval::range(kNegInf, t));
        if (exactAdd(regOf(*s, a).lo, 1, &t))
            vb = meet(vb, Interval::range(t, kPosInf));
        break;
      case Rel::Ge:
        va = meet(va, Interval::range(vb.lo, kPosInf));
        vb = meet(vb, Interval::range(kNegInf, regOf(*s, a).hi));
        break;
      case Rel::Eq: {
        const Interval m = meet(va, vb);
        va = m;
        vb = m;
        break;
      }
      case Rel::Ne:
        if (vb.isConst() && !va.isBottom()) {
            if (va.lo == vb.constant() && exactAdd(va.lo, 1, &t))
                va = meet(va, Interval::range(t, kPosInf));
            else if (va.hi == vb.constant() && exactSub(va.hi, 1, &t))
                va = meet(va, Interval::range(kNegInf, t));
        }
        if (va.isConst() && !vb.isBottom()) {
            if (vb.lo == va.constant() && exactAdd(vb.lo, 1, &t))
                vb = meet(vb, Interval::range(t, kPosInf));
            else if (vb.hi == va.constant() && exactSub(vb.hi, 1, &t))
                vb = meet(vb, Interval::range(kNegInf, t));
        }
        break;
    }
    if (va.isBottom() || vb.isBottom()) {
        s->reachable = false;
        return;
    }
    if (a < kNumRegs)
        s->regs[a] = va;
    if (b < kNumRegs)
        s->regs[b] = vb;
}

void
refineEdge(RegState *s, const Instruction &term, bool taken)
{
    Rel rel;
    if (!effectiveRel(term.op, taken, &rel))
        return;
    refineRel(s, rel, term.rs1, term.rs2);
}

/** Pushes @p state through every instruction of block @p b. */
RegState
transferBlock(const Program &program, BlockId b, RegState state)
{
    for (const Instruction &inst : program.block(b).instrs)
        applyInstr(inst, &state);
    return state;
}

/**
 * Calls fn(successor, edge_state) for every real-block out-edge of
 * @p b, with the terminator's refinement applied per edge. Unreachable
 * edge states (infeasible branch outcomes) are still reported; callers
 * skip them via RegState::reachable.
 */
template <typename Fn>
void
forEachOutEdge(const Program &program, const Cfg &cfg, BlockId b,
               const RegState &in, Fn &&fn)
{
    if (!in.reachable)
        return;
    const RegState out = transferBlock(program, b, in);
    if (!out.reachable)
        return;
    const std::size_t num_blocks = cfg.numBlocks();
    const BasicBlock &bb = program.block(b);
    const Instruction *term =
        bb.instrs.empty() ? nullptr : &bb.instrs.back();

    if (term != nullptr && isCondBranch(term->op)) {
        const BlockId t = term->target;
        const BlockId f = b + 1;
        RegState taken = out;
        refineEdge(&taken, *term, true);
        RegState fall = out;
        refineEdge(&fall, *term, false);
        if (t == f) {
            taken.join(fall);
            fn(t, taken);
            return;
        }
        fn(t, taken);
        if (f < num_blocks)
            fn(f, fall);
        return;
    }
    if (term != nullptr && term->op == Opcode::Jump) {
        fn(term->target, out);
        return;
    }
    if (term != nullptr && term->op == Opcode::Halt)
        return;
    if (b + 1 < num_blocks)
        fn(static_cast<BlockId>(b + 1), out);
}

/** Reverse postorder over the forward CFG (unreachable blocks last). */
std::vector<BlockId>
reversePostorder(const Cfg &cfg)
{
    const std::size_t n = cfg.numBlocks();
    std::vector<bool> seen(n, false);
    std::vector<BlockId> post;
    post.reserve(n);
    // Iterative DFS with an explicit (block, next-successor) stack.
    std::vector<std::pair<BlockId, std::size_t>> stack;
    if (n > 0) {
        stack.push_back({0, 0});
        seen[0] = true;
    }
    while (!stack.empty()) {
        auto &[b, i] = stack.back();
        const auto &succs = cfg.successors(b);
        bool descended = false;
        while (i < succs.size()) {
            const BlockId s = succs[i++];
            if (s >= n || seen[s])
                continue;
            seen[s] = true;
            stack.push_back({s, 0});
            descended = true;
            break;
        }
        if (!descended && !stack.empty() && stack.back().first == b &&
            i >= succs.size()) {
            post.push_back(b);
            stack.pop_back();
        }
    }
    std::vector<BlockId> order(post.rbegin(), post.rend());
    for (BlockId b = 0; b < n; ++b) {
        if (!seen[b])
            order.push_back(b);
    }
    return order;
}

RegState
widenState(const RegState &prev, const RegState &next)
{
    if (!prev.reachable)
        return next;
    RegState w = prev;
    for (RegId r = 0; r < kNumRegs; ++r)
        w.regs[r] = widen(prev.regs[r], next.regs[r]);
    return w;
}

} // namespace

void
RegState::join(const RegState &other)
{
    if (!other.reachable)
        return;
    if (!reachable) {
        *this = other;
        return;
    }
    for (RegId r = 0; r < kNumRegs; ++r)
        regs[r] = absint::join(regs[r], other.regs[r]);
}

bool
RegState::operator==(const RegState &other) const
{
    if (reachable != other.reachable)
        return false;
    if (!reachable)
        return true;
    return regs == other.regs;
}

void
applyInstr(const Instruction &inst, RegState *state)
{
    const RegId rd = inst.dest();
    if (rd == kNoReg)
        return;
    Interval v;
    // Mirror the interpreter's operand selection (exec/interp.cc): a
    // present rs2 means the register form, else the immediate form.
    const Interval a = regOf(*state, inst.rs1);
    const Interval b = inst.rs2 != kNoReg ? regOf(*state, inst.rs2)
                                          : Interval::val(inst.imm);
    switch (inst.op) {
      case Opcode::LoadImm: v = Interval::val(inst.imm); break;
      case Opcode::Add:
      case Opcode::AddI: v = iAdd(a, b); break;
      case Opcode::Sub: v = iSub(a, b); break;
      case Opcode::Mul: v = iMul(a, b); break;
      case Opcode::Div: v = iDiv(a, b); break;
      case Opcode::And:
      case Opcode::AndI: v = iAnd(a, b); break;
      case Opcode::Or:
      case Opcode::OrI: v = iOrXor(a, b, true); break;
      case Opcode::Xor:
      case Opcode::XorI: v = iOrXor(a, b, false); break;
      case Opcode::Sll:
      case Opcode::ShlI: v = iShl(a, b); break;
      case Opcode::Srl:
      case Opcode::ShrI: v = iShr(a, b); break;
      case Opcode::Slt:
      case Opcode::SltI: v = iSlt(a, b); break;
      case Opcode::Load: v = Interval::top(); break;
      default: v = Interval::top(); break;
    }
    if (rd != kZeroReg)
        state->regs[rd] = v;
}

IntervalResult
solveIntervals(const Program &program, const Cfg &cfg,
               const LoopForest &loops)
{
    const std::size_t n = cfg.numBlocks();
    IntervalResult result;
    result.in.assign(n, RegState{});
    if (n == 0)
        return result;

    RegState entry;
    entry.reachable = true;
    entry.regs.fill(Interval::top());
    entry.regs[kZeroReg] = Interval::val(0);
    result.in[0] = entry;

    std::vector<bool> is_header(n, false);
    for (const NaturalLoop &loop : loops.loops())
        is_header[loop.header] = true;

    const std::vector<BlockId> order = reversePostorder(cfg);
    std::vector<std::size_t> rpo_index(n, 0);
    for (std::size_t i = 0; i < order.size(); ++i)
        rpo_index[order[i]] = i;

    // Worklist keyed by RPO position so loop bodies settle before
    // their headers re-fire.
    std::set<std::pair<std::size_t, BlockId>> worklist;
    std::vector<std::uint32_t> updates(n, 0);
    worklist.insert({rpo_index[0], 0});

    constexpr std::uint32_t kWidenDelay = 2;
    const std::uint64_t cap = 512 * static_cast<std::uint64_t>(n + 1);

    while (!worklist.empty()) {
        const BlockId b = worklist.begin()->second;
        worklist.erase(worklist.begin());
        if (++result.visits > cap) {
            result.converged = false;
            break;
        }
        forEachOutEdge(program, cfg, b, result.in[b],
                       [&](BlockId s, const RegState &edge) {
                           if (!edge.reachable || s >= n)
                               return;
                           RegState merged = result.in[s];
                           merged.join(edge);
                           if (is_header[s] &&
                               updates[s] >= kWidenDelay)
                               merged =
                                   widenState(result.in[s], merged);
                           if (merged == result.in[s])
                               return;
                           result.in[s] = merged;
                           ++updates[s];
                           worklist.insert({rpo_index[s], s});
                       });
    }

    // Narrowing: bounded decreasing sweeps without widening. Each full
    // sweep applies the (monotone) system function to a state known to
    // be above the least fixpoint, so any fixed number of sweeps stays
    // sound while clawing back precision the widening threw away.
    constexpr int kNarrowPasses = 2;
    for (int pass = 0; pass < kNarrowPasses; ++pass) {
        std::vector<RegState> next(n, RegState{});
        next[0] = entry;
        for (const BlockId b : order) {
            forEachOutEdge(program, cfg, b, result.in[b],
                           [&](BlockId s, const RegState &edge) {
                               if (edge.reachable && s < n)
                                   next[s].join(edge);
                           });
        }
        result.in = std::move(next);
    }
    return result;
}

RegState
edgeState(const IntervalResult &fix, const Program &program,
          const Cfg &cfg, BlockId from, BlockId to)
{
    RegState result;
    forEachOutEdge(program, cfg, from, fix.in[from],
                   [&](BlockId s, const RegState &st) {
                       if (s == to && st.reachable)
                           result.join(st);
                   });
    return result;
}

// ---------------------------------------------------------------------
// Counted loops
// ---------------------------------------------------------------------

namespace
{

/** All in-loop def sites of @p reg, as (block, index) pairs. */
std::vector<std::pair<BlockId, std::size_t>>
defsInLoop(const Program &program, const NaturalLoop &loop, RegId reg)
{
    std::vector<std::pair<BlockId, std::size_t>> defs;
    for (const BlockId b : loop.blocks) {
        const auto &instrs = program.block(b).instrs;
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            if (instrs[i].dest() == reg)
                defs.push_back({b, i});
        }
    }
    return defs;
}

/** The relation a CFG edge (from -> to) implies, when its source
 *  terminator is a conditional branch that decides the edge. */
bool
edgeRelation(const Program &program, BlockId from, BlockId to,
             Rel *rel, RegId *r1, RegId *r2)
{
    const auto &instrs = program.block(from).instrs;
    if (instrs.empty())
        return false;
    const Instruction &term = instrs.back();
    if (!isCondBranch(term.op))
        return false;
    const BlockId taken = term.target;
    const BlockId fall = from + 1;
    if (taken == fall)
        return false; // both outcomes land here: nothing decided
    bool is_taken;
    if (to == taken)
        is_taken = true;
    else if (to == fall)
        is_taken = false;
    else
        return false;
    if (!effectiveRel(term.op, is_taken, rel))
        return false;
    *r1 = term.rs1;
    *r2 = term.rs2;
    return true;
}

/** True when the edge proves counter >= limit. */
bool
provesExit(Rel rel, RegId r1, RegId r2, RegId ctr, RegId lim)
{
    if (rel == Rel::Ge && r1 == ctr && r2 == lim)
        return true;
    if (rel == Rel::Lt && r1 == lim && r2 == ctr)
        return true; // lim < ctr is even stronger
    return false;
}

/** True when the edge proves counter < limit (strictly). */
bool
provesContinue(Rel rel, RegId r1, RegId r2, RegId ctr, RegId lim)
{
    return rel == Rel::Lt && r1 == ctr && r2 == lim;
}

/** ceil(a / b) for b > 0. */
std::int64_t
ceilDivPos(std::int64_t a, std::int64_t b)
{
    const std::int64_t q = a / b;
    return q * b < a ? q + 1 : q;
}

/** Tries every (counter, limit) candidate of one loop; returns the
 *  recognition with the strongest proven minimum trip count. */
bool
recognizeCountedLoop(const Program &program, const Cfg &cfg,
                     const IntervalResult &fix, const NaturalLoop &loop,
                     std::size_t loop_index, CountedLoop *out)
{
    const std::size_t n = cfg.numBlocks();

    // Exit edges (u in loop -> v outside). An edge into the virtual
    // exit node (halt) can never carry an exit proof.
    std::vector<std::pair<BlockId, BlockId>> exit_edges;
    bool halt_exit = false;
    for (const BlockId u : loop.blocks) {
        for (const BlockId v : cfg.successors(u)) {
            if (v >= n) {
                halt_exit = true;
                continue;
            }
            if (!loop.contains(v))
                exit_edges.push_back({u, v});
        }
    }
    if (halt_exit || exit_edges.empty())
        return false;

    // Candidate counters: registers whose every in-loop def is a
    // positive constant self-increment.
    std::vector<RegId> candidates;
    for (RegId reg = 1; reg < kNumRegs; ++reg) {
        const auto defs = defsInLoop(program, loop, reg);
        if (defs.empty())
            continue;
        bool ok = true;
        for (const auto &[b, i] : defs) {
            const Instruction &inst = program.block(b).instrs[i];
            if (inst.op != Opcode::AddI || inst.rs1 != reg ||
                inst.imm <= 0) {
                ok = false;
                break;
            }
        }
        if (ok)
            candidates.push_back(reg);
    }

    bool found = false;
    CountedLoop best;
    for (const RegId ctr : candidates) {
        std::int64_t min_step = kPosInf;
        std::int64_t max_step = 0;
        for (const auto &[b, i] : defsInLoop(program, loop, ctr)) {
            const std::int64_t step = program.block(b).instrs[i].imm;
            min_step = std::min(min_step, step);
            max_step = std::max(max_step, step);
        }

        // Every exit edge must prove ctr >= lim against one shared,
        // loop-invariant limit register.
        RegId lim = kNoReg;
        bool proven = true;
        for (const auto &[u, v] : exit_edges) {
            Rel rel;
            RegId r1, r2;
            if (!edgeRelation(program, u, v, &rel, &r1, &r2)) {
                proven = false;
                break;
            }
            const RegId other = r1 == ctr ? r2 : r1;
            if (!provesExit(rel, r1, r2, ctr, other) ||
                (lim != kNoReg && other != lim)) {
                proven = false;
                break;
            }
            lim = other;
        }
        if (!proven || lim == kNoReg || lim == ctr ||
            !defsInLoop(program, loop, lim).empty())
            continue;

        CountedLoop cl;
        cl.loopIndex = loop_index;
        cl.header = loop.header;
        cl.counter = ctr;
        cl.limit = lim;
        cl.minStep = min_step;
        cl.maxStep = max_step;
        cl.bodyInstrs = 0;
        for (const BlockId b : loop.blocks)
            cl.bodyInstrs += program.block(b).instrs.size();
        cl.mandatory = cfg.postdominates(loop.header, 0);

        // Counter/limit values joined over the loop-entry edges.
        cl.init = Interval::bottom();
        cl.limitAtEntry = Interval::bottom();
        bool any_entry = false;
        for (const BlockId p : cfg.predecessors(loop.header)) {
            if (p >= n || loop.contains(p))
                continue;
            const RegState st =
                edgeState(fix, program, cfg, p, loop.header);
            if (!st.reachable)
                continue;
            any_entry = true;
            cl.init = join(cl.init, regOf(st, ctr));
            cl.limitAtEntry = join(cl.limitAtEntry, regOf(st, lim));
        }
        if (loop.header == 0) {
            // The program entry itself enters this loop; its values
            // are unconstrained.
            cl.init = Interval::top();
            cl.limitAtEntry =
                lim == kZeroReg ? Interval::val(0) : Interval::top();
            any_entry = true;
        }
        if (!any_entry) {
            cl.init = Interval::top();
            cl.limitAtEntry = Interval::top();
        }

        // minTrip: the counter must advance from at most init.hi to at
        // least limit.lo, in steps of at most maxStep.
        std::int64_t d = 0;
        if (cl.init.boundedAbove() && cl.limitAtEntry.boundedBelow() &&
            exactSub(cl.limitAtEntry.lo, cl.init.hi, &d) && d > 0)
            cl.minTrip = ceilDivPos(d, max_step);

        // maxTrip needs a strict ctr < lim proof on every continue
        // path: either all back edges, or the header's in-loop edge
        // (the header dominates every iteration).
        bool continues_proven = !loop.latches.empty();
        for (const BlockId latch : loop.latches) {
            Rel rel;
            RegId r1, r2;
            if (!edgeRelation(program, latch, loop.header, &rel, &r1,
                              &r2) ||
                !provesContinue(rel, r1, r2, ctr, lim)) {
                continues_proven = false;
                break;
            }
        }
        if (!continues_proven) {
            for (const BlockId s : cfg.successors(loop.header)) {
                Rel rel;
                RegId r1, r2;
                if (s < n && loop.contains(s) &&
                    edgeRelation(program, loop.header, s, &rel, &r1,
                                 &r2) &&
                    provesContinue(rel, r1, r2, ctr, lim)) {
                    continues_proven = true;
                    break;
                }
            }
        }
        std::int64_t d2 = 0;
        if (continues_proven && cl.init.boundedBelow() &&
            cl.limitAtEntry.boundedAbove() &&
            exactSub(cl.limitAtEntry.hi, cl.init.lo, &d2)) {
            // Increments 1..K-1 each followed by a passed ctr < lim
            // test; one generous extra step of slack keeps this a safe
            // upper bound for every test placement.
            cl.maxTrip = d2 <= 0 ? 1 : (d2 - 1) / min_step + 2;
        }

        for (const BlockId b : loop.blocks) {
            const auto &instrs = program.block(b).instrs;
            for (std::size_t i = 0; i < instrs.size(); ++i) {
                const Instruction &inst = instrs[i];
                if (isCondBranch(inst.op) &&
                    ((inst.rs1 == ctr && inst.rs2 == lim) ||
                     (inst.rs1 == lim && inst.rs2 == ctr)))
                    cl.testBranches.push_back(
                        program.staticId(b, i));
            }
        }

        if (!found || cl.minTrip > best.minTrip) {
            best = cl;
            found = true;
        }
    }
    if (found)
        *out = best;
    return found;
}

} // namespace

std::vector<CountedLoop>
findCountedLoops(const Program &program, const Cfg &cfg,
                 const LoopForest &loops, const IntervalResult &fix)
{
    std::vector<CountedLoop> counted;
    const auto &all = loops.loops();
    for (std::size_t i = 0; i < all.size(); ++i) {
        CountedLoop cl;
        if (recognizeCountedLoop(program, cfg, fix, all[i], i, &cl))
            counted.push_back(cl);
    }
    return counted;
}

} // namespace dee::analysis::absint
