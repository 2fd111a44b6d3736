/**
 * @file
 * perfbench: the repository benchmark (README.md in this directory).
 *
 *   perfbench --workload figure5|serve_warm|serve_routed --seed N
 *             --seconds S --trace 0|1 [--refs FILE]
 *   perfbench --gen-refs [--refs FILE]
 *
 * Run from the repository root. Unix sockets and span ledgers go under
 * .perfbench/, a path relative to the root so that socket paths fit
 * in sun_path however deep the checkout is.
 *
 * Prints a host line, then, as the last line of stdout, one JSON
 * object with `correct`, `attempted`, `failed` and `metrics`: the
 * end-to-end metrics with --trace 0, the per-layer ledger with
 * --trace 1. Exits 0 when every op matched its reference, 1 when
 * one did not, 2 on a usage or set-up error (no result line).
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "bench.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload figure5|serve_warm|"
                 "serve_routed --seed N --seconds S --trace 0|1\n"
                 "                 [--refs FILE]\n"
                 "       perfbench --gen-refs [--refs FILE]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    o.refsPath = "perfbench/refs.txt";
    bool seedSet = false, secondsSet = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = val();
            else if (a == "--seed")
                o.seed = std::stoull(val()), seedSet = true;
            else if (a == "--seconds")
                o.seconds = std::stod(val()), secondsSet = true;
            else if (a == "--trace")
                o.trace = std::stoi(val()) != 0;
            else if (a == "--refs")
                o.refsPath = val();
            else if (a == "--gen-refs")
                o.genRefs = true;
            else
                usage(("unknown flag " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!o.genRefs && (o.workload.empty() || !seedSet || !secondsSet))
        usage("--workload, --seed and --seconds are required");
    if (!o.genRefs && !(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    std::signal(SIGPIPE, SIG_IGN);
    namespace fs = std::filesystem;
    try {
        Refs refs;
        if (o.genRefs) {
            genFigure5Refs(refs);
            genServeRefs(refs);
            refs.save(o.refsPath);
            std::fprintf(stderr, "perfbench: wrote %zu digests to %s\n",
                         refs.size(), o.refsPath.c_str());
            return 0;
        }

        Result (*run)(const Options &, Refs &) = nullptr;
        unsigned cpus = 1;
        if (o.workload == "figure5")
            run = runFigure5;
        else if (o.workload == "serve_warm")
            run = runServeWarm;
        else if (o.workload == "serve_routed")
            run = runServeRouted, cpus = 2;
        else
            usage(("unknown workload " + o.workload).c_str());

        refs.load(o.refsPath);
        // Pin before any thread exists: every thread the run creates,
        // the in-process daemons' included, inherits the mask.
        std::vector<int> pinned = pinCpus(cpus);
        std::printf("%s\n", hostLine(pinned).c_str());

        // Sockets live in a per-process directory under outDir; span
        // ledgers are written to outDir itself.
        o.sockDir = o.outDir + "/" + std::to_string(getpid());
        fs::create_directories(o.sockDir);
        Result r = run(o, refs);
        fs::remove_all(o.sockDir);

        std::printf("%s\n", r.line().c_str());
        std::fflush(stdout);
        return r.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
