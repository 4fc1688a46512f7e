/**
 * @file
 * gcbench: runs one benchmark workload against the gcassert runtime
 * and prints one JSON result document on stdout.
 *
 *   gcbench --workload server-alldead|heap-audit|young-churn
 *           --seed N --seconds S --trace 0|1
 *           [--quick] [--out DIR] [--fault NAME]
 *
 * perfbench/run.py builds this binary and turns the document into the
 * benchmark's result line; see perfbench/README.md.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"

extern char **environ;

namespace {

using gcbench::Options;
using gcbench::Outcome;

/**
 * Drop every GCASSERT_* variable: they seed RuntimeConfig defaults,
 * so a variable left over from a CI matrix leg would silently change
 * the measured configuration.
 */
void
clearLibraryEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "GCASSERT_", 9) != 0)
            continue;
        const char *eq = std::strchr(*e, '=');
        names.emplace_back(*e, eq ? static_cast<size_t>(eq - *e)
                                  : std::strlen(*e));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "gcbench: %s\nusage: gcbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--quick] [--out DIR] "
                 "[--fault NAME]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            opt.trace = value() != "0";
        else if (a == "--quick")
            opt.quick = true;
        else if (a == "--out")
            opt.outDir = value();
        else if (a == "--fault")
            opt.fault = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");
    return opt;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

template <typename Map>
std::string
numberObject(const Map &m)
{
    std::string s = "{";
    for (const auto &[k, v] : m) {
        if (s.size() > 1)
            s += ",";
        s += jsonString(k) + ":" + jsonNumber(v);
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    clearLibraryEnvironment();
    Options opt = parseArgs(argc, argv);

    Outcome out;
    if (opt.workload == "server-alldead")
        out = gcbench::runServerAllDead(opt);
    else if (opt.workload == "heap-audit")
        out = gcbench::runHeapAudit(opt);
    else if (opt.workload == "young-churn")
        out = gcbench::runYoungChurn(opt);
    else
        usage(("unknown workload " + opt.workload).c_str());

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    out.e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

    bool correct = true;
    std::string checks = "{";
    for (const auto &[name, ok] : out.checks) {
        correct = correct && ok;
        if (checks.size() > 1)
            checks += ",";
        checks += jsonString(name) + ":" + (ok ? "true" : "false");
    }
    checks += "}";
    std::string notes = "[";
    for (size_t i = 0; i < out.notes.size() && i < 20; ++i)
        notes += (i ? "," : "") + jsonString(out.notes[i]);
    notes += "]";
    std::string config = "{";
    for (const auto &[k, v] : out.config) {
        if (config.size() > 1)
            config += ",";
        config += jsonString(k) + ":" + jsonString(v);
    }
    config += "}";

    std::printf(
        "{\"workload\":%s,\"seed\":%llu,\"trace\":%s,\"quick\":%s,"
        "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
        "\"setup_done_ns\":%llu,\"window_s\":%s,\"checks\":%s,"
        "\"notes\":%s,\"config\":%s,\"e2e\":%s,\"layer\":%s,"
        "\"counts\":%s}\n",
        jsonString(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed),
        opt.trace ? "true" : "false", opt.quick ? "true" : "false",
        correct ? "true" : "false",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed),
        static_cast<unsigned long long>(out.setupDoneNs),
        jsonNumber(out.windowSeconds).c_str(), checks.c_str(),
        notes.c_str(), config.c_str(), numberObject(out.e2e).c_str(),
        numberObject(out.layer).c_str(), numberObject(out.counts).c_str());
    return 0;
}
