#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"campus-week", 1, 4, Path::kStreaming, false},
      {"campus-wide", 4, 2, Path::kStreaming, false},
      {"sharded-wide", 4, 2, Path::kSharded, true},
  };
  return kWorkloads;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::runtime_error("unknown workload: " + name);
}

// --- expectations file: one line per record, whitespace separated ---------

namespace {

void write_set(std::ostream& out, const char* tag, const HostSet& s) {
  out << tag << ' ' << s.size();
  for (const std::uint32_t h : s) out << ' ' << h;
  out << '\n';
}

HostSet read_set(std::istream& in, const char* tag) {
  std::string got;
  std::size_t n = 0;
  in >> got >> n;
  if (got != tag) throw std::runtime_error("expectations: expected " + std::string(tag));
  HostSet s(n);
  for (std::uint32_t& h : s) in >> h;
  return s;
}

}  // namespace

void write_expectations(const std::string& path, const Expectations& e) {
  std::ofstream out(path);
  out.precision(17);
  out << "perfbench-expect 1 " << e.workload << ' ' << e.seed << ' ' << e.total_flows << ' '
      << e.windows.size() << '\n';
  for (const WindowExpect& w : e.windows) {
    out << "window " << (w.storm ? "storm" : "nugache") << ' ' << w.flows << ' '
        << w.median_failed << '\n';
    write_set(out, "bots", w.bots);
    write_set(out, "reduced", w.reduced);
    write_set(out, "svol", w.s_vol);
    write_set(out, "schurn", w.s_churn);
    write_set(out, "plotters", w.oracle_plotters);
    out << "hosts " << w.hosts.size() << '\n';
    for (const auto& [h, c] : w.hosts)
      out << h << ' ' << c.flows_initiated << ' ' << c.flows_failed << ' ' << c.flows_received
          << ' ' << c.bytes_initiated << ' ' << c.bytes_received << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

Expectations read_expectations(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Expectations e;
  std::string magic;
  int version = 0;
  std::size_t windows = 0;
  in >> magic >> version >> e.workload >> e.seed >> e.total_flows >> windows;
  if (magic != "perfbench-expect" || version != 1)
    throw std::runtime_error("expectations: bad header in " + path);
  e.windows.resize(windows);
  for (WindowExpect& w : e.windows) {
    std::string tag, botnet;
    in >> tag >> botnet >> w.flows >> w.median_failed;
    if (tag != "window") throw std::runtime_error("expectations: expected window");
    w.storm = botnet == "storm";
    w.bots = read_set(in, "bots");
    w.reduced = read_set(in, "reduced");
    w.s_vol = read_set(in, "svol");
    w.s_churn = read_set(in, "schurn");
    w.oracle_plotters = read_set(in, "plotters");
    std::size_t n = 0;
    in >> tag >> n;
    if (tag != "hosts") throw std::runtime_error("expectations: expected hosts");
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t h = 0;
      HostCounts c;
      in >> h >> c.flows_initiated >> c.flows_failed >> c.flows_received >> c.bytes_initiated >>
          c.bytes_received;
      w.hosts.emplace(h, c);
    }
  }
  if (!in) throw std::runtime_error("expectations: truncated " + path);
  return e;
}

// --- spans -----------------------------------------------------------------

int Tracer::begin(const std::string& name, int parent) {
  const double now = ms_between(t0_, Clock::now());
  spans_.push_back({name, now, now, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) { spans_[id].end_ms = ms_between(t0_, Clock::now()); }

void Tracer::add(const std::string& name, Clock::time_point a, Clock::time_point b, int parent) {
  spans_.push_back({name, ms_between(t0_, a), ms_between(t0_, b), parent});
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) total += s.end_ms - s.start_ms;
  return total;
}

double Tracer::self_ms(int id) const {
  // Children of one span never overlap (one thread records them in order),
  // so their covered part is the sum of their durations.
  double covered = 0.0;
  for (const Span& s : spans_)
    if (s.parent == id) covered += s.end_ms - s.start_ms;
  return (spans_[id].end_ms - spans_[id].start_ms) - covered;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,\"parent\":%d}\n",
                  i, s.name.c_str(), s.start_ms, s.end_ms, s.parent);
    out << line;
  }
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
