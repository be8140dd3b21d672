/**
 * @file
 * Binary trace file format (reader/writer).
 *
 * Traces can be captured once and replayed into many model sweeps (the
 * paper runs eight models over the same benchmark traces). Layout:
 *
 *   header:  magic "DEETRAC1" (8 bytes), u32 numStatic, u64 numRecords
 *   records: packed little-endian, 24 bytes each:
 *            u32 sid, u32 block, u8 op, u8 rd, u8 rs1, u8 rs2,
 *            u8 flags (bit0 isBranch, bit1 taken, bit2 backward),
 *            3 pad bytes,
 *            u64 memAddr
 */

#ifndef DEE_TRACE_TRACE_IO_HH
#define DEE_TRACE_TRACE_IO_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"

namespace dee
{

/**
 * Largest numStatic a trace file may declare. Branch predictors and the
 * per-branch profilers allocate tables of numStatic entries, so a header
 * may not ask for more than 2^24 (16M static instructions; the largest
 * workload has a few thousand).
 */
constexpr std::uint32_t kMaxTraceStatic = std::uint32_t{1} << 24;

/** Writes a trace to a file; fatal on I/O failure. */
void writeTrace(const Trace &trace, const std::string &path);

/**
 * Reads a trace file into @p out. On failure returns false, sets
 * @p err to a message naming the file and the fault, and leaves @p out
 * unspecified. Rejected: I/O errors, a bad magic, a numStatic above
 * kMaxTraceStatic, a record count the file is too short to hold,
 * and any record with an opcode past Nop, a register that is neither
 * kNoReg nor below kNumRegs, or a sid not below numStatic.
 */
bool readTrace(const std::string &path, Trace *out, std::string *err);

} // namespace dee

#endif // DEE_TRACE_TRACE_IO_HH
