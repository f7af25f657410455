// make_pcap — convert an NTR1 trace (or a generated workload) to pcap.
//
// Frames are the same 42-byte Ethernet/IPv4/L4 headers the switch
// substrate materializes (ingest::write_frame), caplen 42, orig_len =
// the record's wire bytes.  Nanosecond pcap by default so NTR1
// timestamps survive the round trip exactly; --micros writes the classic
// microsecond format (lossy for sub-µs spacing).
//
// Usage:
//   make_pcap IN.ntr OUT.pcap [--micros]
//   make_pcap --workload caida --packets N --flows N --seed N OUT.pcap
#include <cstdio>
#include <string>

#include "flags.hpp"
#include "ingest/pcap.hpp"
#include "trace/trace_io.hpp"
#include "trace/workloads.hpp"

int main(int argc, char** argv) {
  using namespace nitro;

  std::string in_file, out_file, workload;
  trace::WorkloadSpec spec;
  spec.packets = 10'000;
  spec.flows = 1'000;
  bool micros = false;

  using tools::kMax;
  for (tools::Flags f(argc, argv); f.next();) {
    const std::string& arg = f.arg();
    if (f.is("--workload")) {
      workload = f.value();
    } else if (f.is("--packets")) {
      spec.packets = f.number<std::uint64_t>(1, kMax<std::uint64_t>);
    } else if (f.is("--flows")) {
      spec.flows = f.number<std::uint64_t>(1, kMax<std::uint64_t>);
    } else if (f.is("--seed")) {
      spec.seed = f.number<std::uint64_t>(0, kMax<std::uint64_t>);
    } else if (f.is("--micros")) {
      micros = true;
    } else if (f.is("--help") || f.is("-h")) {
      std::fprintf(stderr,
                   "usage: %s IN.ntr OUT.pcap [--micros]\n"
                   "       %s --workload NAME [--packets N] [--flows N]"
                   " [--seed N] OUT.pcap\n",
                   argv[0], argv[0]);
      return 2;
    } else if (!arg.empty() && arg[0] == '-') {
      f.unknown();
    } else if (in_file.empty() && out_file.empty()) {
      in_file = arg;  // provisionally; shifts to out_file if it's the only one
    } else if (out_file.empty()) {
      out_file = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!workload.empty() && out_file.empty()) {
    // Workload mode takes a single positional: the output.
    out_file = in_file;
    in_file.clear();
  }
  if (out_file.empty() || (in_file.empty() && workload.empty())) {
    std::fprintf(stderr, "need an input (.ntr file or --workload) and an output\n");
    return 2;
  }

  try {
    trace::Trace stream;
    if (!in_file.empty()) {
      stream = trace::load_trace(in_file);
      std::printf("loaded %zu records from %s\n", stream.size(), in_file.c_str());
    } else {
      stream = trace::by_name(workload, spec);
      std::printf("generated %zu-record %s workload\n", stream.size(),
                  workload.c_str());
    }
    ingest::write_pcap(out_file, stream, /*nanos=*/!micros);
    std::printf("wrote %s (%s timestamps, %zu records)\n", out_file.c_str(),
                micros ? "microsecond" : "nanosecond", stream.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "make_pcap: %s\n", e.what());
    return 1;
  }
  return 0;
}
