#include "trace/trace.hh"

#include <sstream>

namespace dee
{

std::vector<BranchPath>
segmentPaths(const Trace &trace)
{
    std::vector<BranchPath> paths;
    DynIndex begin = 0;
    for (DynIndex i = 0; i < trace.records.size(); ++i) {
        if (trace.records[i].isBranch) {
            paths.push_back(BranchPath{begin, i + 1, true});
            begin = i + 1;
        }
    }
    if (begin < trace.records.size())
        paths.push_back(
            BranchPath{begin, static_cast<DynIndex>(trace.records.size()),
                       false});
    return paths;
}

TraceStats
computeStats(const Trace &trace)
{
    TraceStats s;
    s.instructions = trace.records.size();
    for (const auto &r : trace.records) {
        switch (opClass(r.op)) {
          case OpClass::CondBranch:
            ++s.condBranches;
            if (r.taken)
                ++s.taken;
            break;
          case OpClass::Load:
            ++s.loads;
            break;
          case OpClass::Store:
            ++s.stores;
            break;
          case OpClass::Jump:
            ++s.jumps;
            break;
          default:
            break;
        }
    }
    if (s.instructions > 0) {
        s.branchFraction = static_cast<double>(s.condBranches) /
                           static_cast<double>(s.instructions);
    }
    if (s.condBranches > 0) {
        s.meanPathLength = static_cast<double>(s.instructions) /
                           static_cast<double>(s.condBranches);
    }
    return s;
}

std::string
TraceStats::render() const
{
    std::ostringstream oss;
    oss << "instructions:   " << instructions << "\n"
        << "cond branches:  " << condBranches << " ("
        << 100.0 * branchFraction << "% of instructions)\n"
        << "taken:          " << taken << "\n"
        << "loads:          " << loads << "\n"
        << "stores:         " << stores << "\n"
        << "jumps:          " << jumps << "\n"
        << "mean path len:  " << meanPathLength << " instructions\n";
    return oss.str();
}

} // namespace dee
