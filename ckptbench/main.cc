// Checkpoint/restore benchmark driver.
//
//   ckptbench --workload <trainer-pec|cluster-dedup-mem|cluster-delta-file>
//             --seed <n> --seconds <s> --trace <0|1> --root <dir>
//
// Runs whole rounds of the workload for about --seconds and prints, as the
// last line of standard output, one JSON object: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics. Every input is
// generated from --seed. The store root --root is created fresh and removed
// on every exit path.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

int
Usage() {
    std::fprintf(stderr,
                 "usage: ckptbench --workload <trainer-pec|cluster-dedup-mem|"
                 "cluster-delta-file> --seed <n> --seconds <s> --trace <0|1> "
                 "--root <dir>\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv) {
    ckptbench::Options options;
    options.process_start = ckptbench::Clock::now();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else if (flag == "--root") {
            options.root = value;
        } else {
            return Usage();
        }
    }
    if (options.root.empty() || options.seconds <= 0.0 ||
        (options.workload != "trainer-pec" &&
         options.workload != "cluster-dedup-mem" &&
         options.workload != "cluster-delta-file")) {
        return Usage();
    }
    try {
        ckptbench::Result result;
        {
            const ckptbench::ScratchDir root(options.root);
            if (options.workload == "trainer-pec") {
                result = ckptbench::RunTrainerPec(options);
            } else {
                result = ckptbench::RunCluster(
                    options, options.workload == "cluster-delta-file");
            }
        }
        ckptbench::PrintResult(result);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ckptbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
