// serpens_perfbench: the seeded benchmark program.
//
//   serpens_perfbench --workload serve_small_tcp|serve_churn
//                     --seed N [--seconds S] [--trace 0|1] [--capacity 0|1]
//                     [--workdir DIR] [--source-rev REV]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run (whose untraced epochs are
// the reference the tracing overhead is derived from). --capacity 1
// instead measures the workload's closed-loop capacity (the figure its
// fixed open-loop rate was derived from) and reports only that. Every
// metric line carries its unit and sample count; the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 only if every result matched the oracle bit for bit.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int usage()
{
    std::fprintf(stderr,
                 "usage: serpens_perfbench --workload "
                 "serve_small_tcp|serve_churn --seed N\n"
                 "                         [--seconds S] [--trace 0|1] "
                 "[--capacity 0|1]\n"
                 "                         [--workdir DIR] [--source-rev REV]\n");
    return 64;
}

} // namespace

int main(int argc, char** argv)
{
    // Two malloc arenas instead of glibc's default of eight per core. With
    // the default, the arenas that the reader, serve and connection
    // threads happen to create made up about half of serve_small_tcp's
    // peak RSS and most of its run-to-run spread (43-46 MiB against
    // 24.6-24.9 MiB with two; serve_churn 356-410 MiB against 218-221 MiB),
    // hiding the memory the library itself holds.
    mallopt(M_ARENA_MAX, 2);

    perfbench::Args args;
    std::string source_rev = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char* v = argv[++i];
        if (flag == "--workload")
            args.workload = v;
        else if (flag == "--seed")
            args.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            args.trace = std::strcmp(v, "0") != 0;
        else if (flag == "--capacity")
            args.capacity = std::strcmp(v, "0") != 0;
        else if (flag == "--workdir")
            args.workdir = v;
        else if (flag == "--source-rev")
            source_rev = v;
        else
            return usage();
    }
    if (!(args.seconds > 0.0))
        return usage();

    perfbench::Report report;
    report.note("workload", args.workload);
    report.note("seed", std::to_string(args.seed));
    report.note("seconds", std::to_string(args.seconds));
    report.note("trace", args.trace ? "1" : "0");
    if (args.capacity)
        report.note("capacity", "1");
    report.note("source.rev", source_rev);
    perfbench::add_fingerprint(report);
    try {
        if (args.workload == "serve_small_tcp")
            perfbench::run_serve_small_tcp(args, report);
        else if (args.workload == "serve_churn")
            perfbench::run_serve_churn(args, report);
        else
            return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                     e.what());
        return 3;
    }
    return report.finish();
}
