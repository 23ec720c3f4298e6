// Writes the checkpoint compatibility images (see checkpoint_compat.h) into
// the directory given as the only argument:
//   ./build/tests/write_checkpoint_images tests/data
#include <cstdio>
#include <string>

#include "checkpoint_compat.h"

int main(int argc, char** argv) {
  using namespace tradeplot;
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUTPUT_DIR\n", argv[0]);
    return 2;
  }
  const std::string out = argv[1];
  const netflow::TraceSet t = compat::trace();
  const auto sink = [](const detect::WindowVerdict&) {};
  detect::StreamingDetector s(compat::streaming_config(), sink);
  shard::ShardedDetector h(compat::sharded_config(), sink);
  for (std::size_t i = 0; i < compat::kKillAt; ++i) {
    s.ingest(t.flows()[i]);
    h.ingest(t.flows()[i]);
  }
  s.save_checkpoint_file(out + "/streaming_v2.tpck");
  h.save_checkpoint_file(out + "/sharded_v2.tpsh");
  return 0;
}
