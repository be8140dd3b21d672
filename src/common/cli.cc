#include "common/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace dee
{

Cli::Cli(std::string program_description)
    : description_(std::move(program_description))
{
}

void
Cli::flag(const std::string &name, const std::string &default_value,
          const std::string &help)
{
    dee_assert(!flags_.count(name), "duplicate flag --", name);
    flags_[name] = Flag{default_value, default_value, help};
    order_.push_back(name);
}

void
Cli::parse(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            dee_fatal("expected a --flag, got '", arg, "'");
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        auto it = flags_.find(name);
        if (it == flags_.end())
            dee_fatal("unknown flag --", name, "\n", usage());
        Flag &flag = it->second;
        const bool boolean =
            flag.defaultValue == "true" || flag.defaultValue == "false";
        if (eq != std::string::npos) {
            flag.value = arg.substr(eq + 1);
        } else if (boolean && (i + 1 >= argc ||
                               std::string(argv[i + 1]).rfind("--", 0) ==
                                   0)) {
            // A bare boolean ("--profile --json out.json") reads as
            // true; it never swallows the next flag.
            flag.value = "true";
        } else {
            if (i + 1 >= argc)
                dee_fatal("flag --", name, " is missing a value");
            flag.value = argv[++i];
        }
    }
}

std::vector<std::pair<std::string, std::string>>
Cli::values() const
{
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(order_.size());
    for (const auto &name : order_)
        out.emplace_back(name, flags_.at(name).value);
    return out;
}

const Cli::Flag &
Cli::lookup(const std::string &name) const
{
    auto it = flags_.find(name);
    dee_assert(it != flags_.end(), "flag --", name, " was never declared");
    return it->second;
}

std::string
Cli::str(const std::string &name) const
{
    return lookup(name).value;
}

std::int64_t
Cli::integer(const std::string &name) const
{
    return integer(name, std::numeric_limits<std::int64_t>::min(),
                   std::numeric_limits<std::int64_t>::max());
}

std::int64_t
Cli::integer(const std::string &name, std::int64_t min,
             std::int64_t max) const
{
    const std::string &v = lookup(name).value;
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        dee_fatal("flag --", name, " expects an integer, got '", v, "'");
    // strtoll saturates on overflow and says so only through errno.
    if (errno == ERANGE)
        dee_fatal("flag --", name, " is out of range, got '", v, "'");
    if (parsed < min || parsed > max)
        dee_fatal("flag --", name, " must be in [", min, ", ", max,
                  "], got ", parsed);
    return parsed;
}

double
Cli::real(const std::string &name) const
{
    const std::string &v = lookup(name).value;
    char *end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        dee_fatal("flag --", name, " expects a number, got '", v, "'");
    return parsed;
}

bool
Cli::boolean(const std::string &name) const
{
    const std::string &v = lookup(name).value;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    dee_fatal("flag --", name, " expects true/false, got '", v, "'");
}

std::string
Cli::usage() const
{
    std::ostringstream oss;
    oss << description_ << "\n\nusage: " << program_
        << " [--flag value]...\n";
    for (const auto &name : order_) {
        const Flag &f = flags_.at(name);
        oss << "  --" << name << " (default: " << f.defaultValue << ")\n"
            << "      " << f.help << "\n";
    }
    return oss.str();
}

} // namespace dee
