/**
 * @file
 * Minimal command-line flag parsing for benches and examples.
 *
 * Supports "--name value" and "--name=value" forms plus "--help". A
 * flag whose default is "true" or "false" may also be given bare
 * ("--profile"), which reads as true. All flags are declared with
 * defaults before parse(); unknown flags are a fatal user error.
 */

#ifndef DEE_COMMON_CLI_HH
#define DEE_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dee
{

/** Declarative flag set: declare, parse, query. */
class Cli
{
  public:
    explicit Cli(std::string program_description);

    /** Declares a flag with a default value and help text. */
    void flag(const std::string &name, const std::string &default_value,
              const std::string &help);

    /**
     * Parses argv. Prints usage and exits(0) on --help; fatal on unknown
     * or malformed flags.
     */
    void parse(int argc, const char *const *argv);

    std::string str(const std::string &name) const;
    /** Fatal unless the value is a whole decimal that fits 64 bits. */
    std::int64_t integer(const std::string &name) const;
    /** As integer(name), and fatal unless the value lies in
     *  [@p min, @p max]: the one range check of a numeric flag. */
    std::int64_t integer(const std::string &name, std::int64_t min,
                         std::int64_t max) const;
    double real(const std::string &name) const;
    bool boolean(const std::string &name) const;

    /** All (name, current value) pairs in declaration order — used by
     *  run manifests to record the effective configuration. */
    std::vector<std::pair<std::string, std::string>> values() const;

    /** Renders the usage/help text. */
    std::string usage() const;

  private:
    struct Flag
    {
        std::string value;
        std::string defaultValue;
        std::string help;
    };

    const Flag &lookup(const std::string &name) const;

    std::string description_;
    std::string program_ = "prog";
    std::map<std::string, Flag> flags_;
    std::vector<std::string> order_;
};

} // namespace dee

#endif // DEE_COMMON_CLI_HH
