#include "common/cli.hh"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace unico::common {

namespace {

/** The last value of --name parsed by @p parse (strtoll/strtod
 *  style), which must consume all of it without a range error;
 *  @p fallback when --name is absent or has an empty value. */
template <typename T, typename Parse>
T
number(const std::map<std::string, std::vector<std::string>> &options,
       const std::string &name, T fallback, const char *kind, Parse parse)
{
    const auto it = options.find(name);
    if (it == options.end() || it->second.back().empty())
        return fallback;
    const std::string &value = it->second.back();
    char *end = nullptr;
    errno = 0;
    const T result = parse(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument("--" + name + ": '" + value +
                                    "' is not " + kind);
    return result;
}

} // namespace

CliArgs::CliArgs(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.size() > 2 && arg.rfind("--", 0) == 0) {
            std::string name = arg.substr(2);
            std::string value;
            const auto eq = name.find('=');
            if (eq != std::string::npos) {
                value = name.substr(eq + 1);
                name = name.substr(0, eq);
            } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                       != 0) {
                value = argv[++i];
            }
            options_[name].push_back(std::move(value));
        } else {
            positional_.push_back(arg);
        }
    }
}

std::vector<std::string>
CliArgs::optionNames() const
{
    std::vector<std::string> names;
    for (const auto &[name, values] : options_)
        names.push_back(name);
    return names;
}

bool
CliArgs::has(const std::string &name) const
{
    return options_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &fallback) const
{
    auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second.back();
}

std::vector<std::string>
CliArgs::getAll(const std::string &name) const
{
    auto it = options_.find(name);
    return it == options_.end() ? std::vector<std::string>{} : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t fallback) const
{
    return number(options_, name, fallback, "an integer",
                  [](const char *s, char **end) -> std::int64_t {
                      return std::strtoll(s, end, 10);
                  });
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    return number(options_, name, fallback, "a number",
                  [](const char *s, char **end) {
                      return std::strtod(s, end);
                  });
}

} // namespace unico::common
