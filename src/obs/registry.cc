#include "obs/registry.hh"

#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"

namespace dee::obs
{

namespace
{

bool
validSegmentChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-';
}

/** Paths are dot-separated non-empty [A-Za-z0-9_-]+ segments. */
bool
validPath(const std::string &path)
{
    if (path.empty() || path.front() == '.' || path.back() == '.')
        return false;
    bool prev_dot = false;
    for (const char c : path) {
        if (c == '.') {
            if (prev_dot)
                return false;
            prev_dot = true;
        } else if (validSegmentChar(c)) {
            prev_dot = false;
        } else {
            return false;
        }
    }
    return true;
}

} // namespace

namespace
{

/** Per-thread override installed by parallel-runner cells. */
thread_local Registry *current_registry = nullptr;

} // namespace

Registry &
Registry::global()
{
    return current_registry != nullptr ? *current_registry : process();
}

Registry &
Registry::process()
{
    static Registry instance;
    return instance;
}

Registry *
Registry::setCurrent(Registry *registry)
{
    Registry *previous = current_registry;
    current_registry = registry;
    return previous;
}

const char *
Registry::kindName(Entry::Kind kind)
{
    switch (kind) {
      case Entry::Kind::Counter: return "counter";
      case Entry::Kind::Stat: return "stat";
    }
    return "???";
}

Registry::Entry &
Registry::resolve(const std::string &path, Entry::Kind kind)
{
    if (!validPath(path)) {
        dee_fatal("bad stat path '", path,
                  "' (want dot-separated [A-Za-z0-9_-] segments)");
    }
    auto it = entries_.find(path);
    if (it != entries_.end()) {
        if (it->second.kind != kind) {
            dee_fatal("stat path '", path, "' already registered as a ",
                      kindName(it->second.kind), ", re-requested as a ",
                      kindName(kind));
        }
        return it->second;
    }
    // Tree-shape check: no leaf may be a dotted prefix of another.
    // entries_ is ordered, so candidate conflicts are adjacent to the
    // insertion point.
    const auto next = entries_.lower_bound(path);
    if (next != entries_.end() &&
        next->first.size() > path.size() &&
        next->first.compare(0, path.size(), path) == 0 &&
        next->first[path.size()] == '.') {
        dee_fatal("stat path '", path, "' is a prefix of existing '",
                  next->first, "'");
    }
    if (next != entries_.begin()) {
        const auto &prev = std::prev(next)->first;
        if (path.size() > prev.size() &&
            path.compare(0, prev.size(), prev) == 0 &&
            path[prev.size()] == '.') {
            dee_fatal("stat path '", path,
                      "' descends through existing leaf '", prev, "'");
        }
    }
    Entry entry;
    entry.kind = kind;
    return entries_.emplace(path, std::move(entry)).first->second;
}

const Registry::Entry *
Registry::findEntry(const std::string &path, Entry::Kind kind) const
{
    const auto it = entries_.find(path);
    if (it == entries_.end() || it->second.kind != kind)
        return nullptr;
    return &it->second;
}

std::vector<std::string>
Registry::paths() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &[path, entry] : entries_)
        out.push_back(path);
    return out;
}

const std::uint64_t *
Registry::findCounter(const std::string &path) const
{
    const Entry *e = findEntry(path, Entry::Kind::Counter);
    return e != nullptr ? &e->counter : nullptr;
}

const RunningStat *
Registry::findStat(const std::string &path) const
{
    const Entry *e = findEntry(path, Entry::Kind::Stat);
    return e != nullptr ? &e->stat : nullptr;
}

void
Registry::merge(const Registry &other)
{
    for (const auto &[path, entry] : other.entries_) {
        if (entry.kind == Entry::Kind::Counter)
            counter(path) += entry.counter;
        else
            stat(path).merge(entry.stat);
    }
}

std::uint64_t &
Registry::counter(const std::string &path)
{
    return resolve(path, Entry::Kind::Counter).counter;
}

RunningStat &
Registry::stat(const std::string &path)
{
    const bool fresh = entries_.find(path) == entries_.end();
    RunningStat &s = resolve(path, Entry::Kind::Stat).stat;
    if (fresh && logStatSamples_)
        s.enableSampleLog();
    return s;
}

bool
Registry::contains(const std::string &path) const
{
    return entries_.count(path) > 0;
}

std::string
Registry::renderText() const
{
    Table table({"stat", "value"});
    for (const auto &[path, entry] : entries_) {
        if (entry.kind == Entry::Kind::Counter) {
            table.addRow({path, std::to_string(entry.counter)});
            continue;
        }
        std::ostringstream cell;
        cell << "n=" << entry.stat.count()
             << " mean=" << Table::fmt(entry.stat.mean(), 4)
             << " min=" << Table::fmt(entry.stat.min(), 4)
             << " max=" << Table::fmt(entry.stat.max(), 4);
        table.addRow({path, cell.str()});
    }
    return table.render();
}

namespace
{

Json
statToJson(const RunningStat &s)
{
    Json j = Json::object();
    j["count"] = Json(s.count());
    j["mean"] = Json(s.mean());
    j["min"] = Json(s.min());
    j["max"] = Json(s.max());
    j["stddev"] = Json(s.stddev());
    j["sum"] = Json(s.sum());
    return j;
}

} // namespace

Json
Registry::toJson() const
{
    Json root = Json::object();
    for (const auto &[path, entry] : entries_) {
        // Walk/create the nested objects for all but the last segment.
        Json *node = &root;
        std::size_t start = 0;
        while (true) {
            const std::size_t dot = path.find('.', start);
            if (dot == std::string::npos)
                break;
            Json &child = (*node)[path.substr(start, dot - start)];
            if (!child.isObject())
                child = Json::object();
            node = &child;
            start = dot + 1;
        }
        Json &leaf = (*node)[path.substr(start)];
        leaf = entry.kind == Entry::Kind::Counter ? Json(entry.counter)
                                                  : statToJson(entry.stat);
    }
    return root;
}

} // namespace dee::obs
