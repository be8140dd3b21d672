#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace dee
{

namespace
{

constexpr char kMagic[8] = {'D', 'E', 'E', 'T', 'R', 'A', 'C', '1'};
constexpr std::size_t kRecordSize = 24;

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
packU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
packU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t
unpackU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
unpackU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

void
writeTrace(const Trace &trace, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        dee_fatal("cannot open '", path, "' for writing");

    unsigned char header[8 + 4 + 8];
    std::memcpy(header, kMagic, 8);
    packU32(header + 8, trace.numStatic);
    packU64(header + 12, trace.records.size());
    if (std::fwrite(header, sizeof(header), 1, f.get()) != 1)
        dee_fatal("short write to '", path, "'");

    std::vector<unsigned char> buf;
    buf.reserve(kRecordSize * 4096);
    auto flush = [&]() {
        if (!buf.empty() &&
            std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size())
            dee_fatal("short write to '", path, "'");
        buf.clear();
    };
    for (const auto &r : trace.records) {
        unsigned char rec[kRecordSize] = {};
        packU32(rec + 0, r.sid);
        packU32(rec + 4, r.block);
        rec[8] = static_cast<unsigned char>(r.op);
        rec[9] = r.rd;
        rec[10] = r.rs1;
        rec[11] = r.rs2;
        rec[12] = static_cast<unsigned char>((r.isBranch ? 1 : 0) |
                                             (r.taken ? 2 : 0) |
                                             (r.backward ? 4 : 0));
        packU64(rec + 16, r.memAddr);
        buf.insert(buf.end(), rec, rec + kRecordSize);
        if (buf.size() >= kRecordSize * 4096)
            flush();
    }
    flush();
}

bool
readTrace(const std::string &path, Trace *out, std::string *err)
{
    auto fail = [&](const std::string &why) {
        *err = "'" + path + "' " + why;
        return false;
    };
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) {
        *err = "cannot open '" + path + "' for reading";
        return false;
    }

    unsigned char header[8 + 4 + 8];
    if (std::fread(header, sizeof(header), 1, f.get()) != 1)
        return fail("is too short to be a trace file");
    if (std::memcmp(header, kMagic, 8) != 0)
        return fail("is not a DEETRAC1 trace file");

    Trace &trace = *out;
    trace = Trace();
    trace.numStatic = unpackU32(header + 8);
    const std::uint64_t count = unpackU64(header + 12);
    if (trace.numStatic > kMaxTraceStatic) {
        return fail("declares numStatic " +
                    std::to_string(trace.numStatic) + ", above the limit " +
                    std::to_string(kMaxTraceStatic));
    }

    // The records must fit in what is left of the file before anything
    // is sized by the header's count.
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        return fail("cannot be sized");
    const long end = std::ftell(f.get());
    if (end < 0 ||
        std::fseek(f.get(), static_cast<long>(sizeof(header)), SEEK_SET) != 0)
        return fail("cannot be sized");
    const std::uint64_t room =
        (static_cast<std::uint64_t>(end) - sizeof(header)) / kRecordSize;
    if (count > room) {
        return fail("is truncated: the header claims " +
                    std::to_string(count) + " records, the file holds " +
                    std::to_string(room));
    }
    trace.records.reserve(count);

    std::vector<unsigned char> buf(kRecordSize * 4096);
    std::uint64_t remaining = count;
    std::uint64_t index = 0;
    while (remaining > 0) {
        const std::size_t batch =
            std::min<std::uint64_t>(remaining, 4096);
        if (std::fread(buf.data(), kRecordSize, batch, f.get()) != batch)
            return fail("is truncated");
        for (std::size_t i = 0; i < batch; ++i, ++index) {
            const unsigned char *rec = buf.data() + i * kRecordSize;
            auto bad = [&](const char *what, std::uint64_t value) {
                return fail("has " + std::string(what) + " " +
                            std::to_string(value) + " in record " +
                            std::to_string(index));
            };
            if (rec[8] > static_cast<unsigned char>(Opcode::Nop))
                return bad("invalid opcode", rec[8]);
            for (int k = 9; k < 12; ++k) {
                if (rec[k] != kNoReg && rec[k] >= kNumRegs)
                    return bad("invalid register", rec[k]);
            }
            TraceRecord r;
            r.sid = unpackU32(rec + 0);
            if (r.sid >= trace.numStatic)
                return bad("static id past numStatic", r.sid);
            r.block = unpackU32(rec + 4);
            r.op = static_cast<Opcode>(rec[8]);
            r.rd = rec[9];
            r.rs1 = rec[10];
            r.rs2 = rec[11];
            r.isBranch = (rec[12] & 1) != 0;
            r.taken = (rec[12] & 2) != 0;
            r.backward = (rec[12] & 4) != 0;
            r.memAddr = unpackU64(rec + 16);
            trace.records.push_back(r);
        }
        remaining -= batch;
    }
    return true;
}

} // namespace dee
