// trace2json -- offline converter from the pm2sim binary trace log to
// Chrome trace-event (Perfetto) JSON.
//
//   trace2json <in.trace.bin> [out.trace.json]
//
// Merges the per-partition ring logs in canonical (emit time, partition,
// seq) order and renders the exact JSON the simulator's own
// write_timeline() emits -- byte-for-byte, for any worker count of the run
// that produced the log. With no output path the JSON goes to stdout; a
// one-line summary (rings, records, drops, strings) always goes to stderr.
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/trace_log.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <in.trace.bin> [out.trace.json]\n"
               "  Converts a pm2sim binary trace log (Cluster::"
               "write_trace_binary)\n"
               "  to Chrome trace-event JSON for chrome://tracing or "
               "https://ui.perfetto.dev.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) return usage(argv[0]);
  const std::string in = argv[1];
  try {
    const pm2::obs::TraceLog::Data data = pm2::obs::TraceLog::read_binary(in);
    const std::string json = pm2::obs::TraceLog::data_to_json(data);
    if (argc == 3) {
      std::ofstream f(argv[2], std::ios::binary);
      if (!f) throw std::runtime_error(std::string("cannot open ") + argv[2]);
      f.write(json.data(), static_cast<std::streamsize>(json.size()));
      if (!f) throw std::runtime_error(std::string("write failed: ") + argv[2]);
    } else {
      std::fwrite(json.data(), 1, json.size(), stdout);
    }
    std::uint64_t dropped = 0;
    for (std::uint64_t d : data.dropped) dropped += d;
    std::fprintf(stderr,
                 "trace2json: %zu ring(s), %zu records, %llu dropped, "
                 "%zu strings <- %s\n",
                 data.rings.size(), data.record_count(),
                 static_cast<unsigned long long>(dropped),
                 data.strings.size(), in.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace2json: %s\n", e.what());
    return 1;
  }
  return 0;
}
