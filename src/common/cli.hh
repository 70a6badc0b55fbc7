/**
 * @file
 * Minimal command-line option parsing shared by bench/example
 * binaries (--seed, --scale, --out, ...).
 */

#ifndef UNICO_COMMON_CLI_HH
#define UNICO_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace unico::common {

/**
 * Parses "--key value" and "--flag" style options.
 *
 * Unknown options are retained and can be queried; positional
 * arguments are collected in order. A repeated option keeps every
 * value: the scalar getters read the last one, getAll() all of them.
 */
class CliArgs
{
  public:
    CliArgs(int argc, const char *const *argv);

    /** True if --name was present (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of --name or @p fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /** Every value of a repeated --name, in command-line order. */
    std::vector<std::string> getAll(const std::string &name) const;

    /** Integer value of --name or @p fallback (also for an empty
     *  value). Throws std::invalid_argument naming the flag when the
     *  value is not a base-10 integer or has trailing characters. */
    std::int64_t getInt(const std::string &name, std::int64_t fallback) const;

    /** Floating-point value of --name or @p fallback; throws like
     *  getInt() on a malformed value. */
    double getDouble(const std::string &name, double fallback) const;

    /** Names of every option given (without "--"), sorted. */
    std::vector<std::string> optionNames() const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::vector<std::string>> options_;
    std::vector<std::string> positional_;
};

} // namespace unico::common

#endif // UNICO_COMMON_CLI_HH
