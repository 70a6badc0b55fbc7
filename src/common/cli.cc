#include "common/cli.hh"

#include <cstdlib>

namespace unico::common {

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
            options_[name] = value;
        } else {
            positional_.push_back(arg);
        }
    }
}

std::vector<std::string>
CliArgs::optionNames() const
{
    std::vector<std::string> names;
    for (const auto &[name, value] : options_)
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
    return it == options_.end() ? fallback : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t fallback) const
{
    auto it = options_.find(name);
    if (it == options_.end() || it->second.empty())
        return fallback;
    return std::strtoll(it->second.c_str(), nullptr, 10);
}

double
CliArgs::getDouble(const std::string &name, double fallback) const
{
    auto it = options_.find(name);
    if (it == options_.end() || it->second.empty())
        return fallback;
    return std::strtod(it->second.c_str(), nullptr);
}

} // namespace unico::common
