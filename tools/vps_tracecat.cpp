// vps-tracecat: merges the per-process run-lifecycle trace files that a
// traced campaign leaves behind (trace.server.<pid>.jsonl,
// trace.worker.<pid>.jsonl, trace.client.<pid>.<tok>.jsonl) into a single
// clock-aligned timeline:
//
//   vps-tracecat [--dir DIR | FILE...] [--out FILE] [--chains]
//                [--require-complete]
//
//   --dir DIR           merge every trace.*.jsonl directly inside DIR
//   FILE...             or name the trace files explicitly
//   --out FILE          write the merged Chrome-trace JSON (load it in
//                       chrome://tracing or https://ui.perfetto.dev)
//   --chains            print the per-(job token, run) chain summary —
//                       which of the six lifecycle hops each run left —
//                       to stdout (the golden-diffable view)
//   --require-complete  exit 1 listing any run whose chain is missing a
//                       hop (lost instrumentation or a lost process)
//
// The server's clock is the reference; other tiers are aligned with the
// min-delay offset estimator documented in dist/trace.hpp. Each source is
// one lane of the timeline. Output is deterministic: the same input files
// always produce the same bytes.

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "vps/dist/trace.hpp"
#include "vps/obs/trace.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dir DIR | FILE...] [--out FILE] [--chains] [--require-complete]\n"
               "  Merge per-process campaign trace files into one timeline.\n"
               "  --dir DIR           merge every trace.*.jsonl inside DIR\n"
               "  --out FILE          write merged Chrome-trace JSON (Perfetto-loadable)\n"
               "  --chains            print the per-run lifecycle chain summary\n"
               "  --require-complete  fail listing runs missing a lifecycle hop\n",
               argv0);
  return 64;  // EX_USAGE
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string dir;
  std::string out_path;
  bool chains = false;
  bool require_complete = false;
  for (int i = 1; i < argc; ++i) {
    const auto want_value = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want_value("--dir")) {
      dir = argv[++i];
    } else if (want_value("--out")) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chains") == 0) {
      chains = true;
    } else if (std::strcmp(argv[i], "--require-complete") == 0) {
      require_complete = true;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (dir.empty() == files.empty()) return usage(argv[0]);  // exactly one source
  if (out_path.empty() && !chains && !require_complete) return usage(argv[0]);

  try {
    if (!dir.empty()) files = vps::dist::list_trace_files(dir);
    if (files.empty()) {
      std::fprintf(stderr, "vps-tracecat: no trace.*.jsonl files to merge\n");
      return 1;
    }
    const vps::dist::DistTrace trace = vps::dist::load_dist_trace(files);

    if (!out_path.empty()) {
      vps::obs::ChromeTraceSink sink(out_path);
      vps::dist::merge_to_chrome(trace, sink);
      if (!sink.close()) {
        std::fprintf(stderr, "vps-tracecat: write to %s failed\n", out_path.c_str());
        return 1;
      }
    }

    if (chains) std::fputs(vps::dist::chains_summary(trace).c_str(), stdout);

    if (require_complete) {
      const std::vector<std::string> missing = vps::dist::incomplete_chains(trace);
      if (!missing.empty()) {
        std::fprintf(stderr, "vps-tracecat: %zu incomplete lifecycle chain(s):\n", missing.size());
        for (const std::string& line : missing) std::fprintf(stderr, "  %s\n", line.c_str());
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vps-tracecat: %s\n", e.what());
    return 1;
  }
}
