#include "cli/run_spec_args.hh"

#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace unico::cli {

namespace {

/** Every value of --flag; each must be non-empty. */
std::vector<std::string>
values(const common::CliArgs &args, const std::string &flag)
{
    std::vector<std::string> all = args.getAll(flag);
    for (const std::string &v : all)
        if (v.empty())
            throw std::invalid_argument("--" + flag + " needs a value");
    return all;
}

/** True when switch --flag is given; it must carry no value. */
bool
switchOn(const common::CliArgs &args, const std::string &flag)
{
    for (const std::string &v : args.getAll(flag))
        if (!v.empty())
            throw std::invalid_argument("--" + flag +
                                        " takes no value (got '" + v + "')");
    return args.has(flag);
}

/** Read one RunSpec member from --flag (given). int members must
 *  fit; unsigned members take the two's-complement bits of a
 *  negative value. */
template <typename T>
void
read(const common::CliArgs &args, const std::string &flag, T &out)
{
    if constexpr (requires { out.has_value(); }) {
        read(args, flag, out.emplace());
    } else if constexpr (std::is_same_v<T, bool>) {
        out = switchOn(args, flag);
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        out = values(args, flag);
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = values(args, flag).back();
    } else if constexpr (std::is_floating_point_v<T>) {
        values(args, flag);
        out = args.getDouble(flag, out);
    } else {
        values(args, flag);
        const std::int64_t v = args.getInt(flag, 0);
        if (std::is_same_v<T, int> && !std::in_range<int>(v))
            throw std::invalid_argument("--" + flag + " is out of range");
        out = static_cast<T>(v);
    }
}

} // namespace

double
surrogateKeepFromArgs(const common::CliArgs &args)
{
    double keep = surrogate::SurrogateOptions{}.keep;
    if (args.has("surrogate-keep"))
        read(args, "surrogate-keep", keep);
    const bool on = switchOn(args, "surrogate") || args.has("surrogate-keep");
    const bool off = switchOn(args, "no-surrogate");
    return on && !off ? keep : 0.0;
}

core::RunSpec
runSpecFromArgs(const common::CliArgs &args,
                const std::vector<std::string> &process_flags)
{
    std::set<std::string> known(process_flags.begin(), process_flags.end());
    known.insert({"surrogate", "surrogate-keep", "no-surrogate"});
    core::RunSpec spec;
    core::forEachField(spec, [&](const char *, const char *flag,
                                 auto &member) {
        if (flag == nullptr)
            return;
        known.insert(flag);
        if (args.has(flag))
            read(args, flag, member);
    });
    for (const std::string &name : args.optionNames())
        if (known.count(name) == 0)
            throw std::invalid_argument("unknown option --" + name);
    for (const std::string &pos : args.positional())
        (pos.find('.') != std::string::npos ? spec.workloads : spec.models)
            .push_back(pos);
    spec.surrogateKeep = surrogateKeepFromArgs(args);
    return spec;
}

} // namespace unico::cli
