#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double NowUs() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

uint64_t NextSeq() {
  static uint64_t seq = 0;
  return ++seq;
}

// ---------------------------------------------------------------- metrics

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = {name, value, unit};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back({name, value, unit});
}

double Metrics::Get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : entries_[it->second].value;
}

std::string Metrics::Json() const {
  std::string out = "{";
  char buf[96];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

// ------------------------------------------------------------- accounting

const char* ClassName(int c) {
  static const char* const kNames[kNumClasses] = {"forward", "backward",
                                                  "update", "gomql"};
  return kNames[c];
}

void Accounting::Ok(int c, double us, bool record_latency) {
  ++counts_[c].attempted;
  ++counts_[c].ok;
  if (record_latency) lat_[c].push_back(us);
}

void Accounting::Error(int c) {
  ++counts_[c].attempted;
  ++counts_[c].errors;
}

void Accounting::Shed(int c) {
  ++counts_[c].attempted;
  ++counts_[c].shed;
}

void Accounting::Mismatch(int c) {
  ++counts_[c].attempted;
  ++counts_[c].mismatches;
}

uint64_t Accounting::attempted() const {
  uint64_t n = 0;
  for (const Counts& c : counts_) n += c.attempted;
  return n;
}

uint64_t Accounting::failed() const {
  uint64_t n = 0;
  for (const Counts& c : counts_) n += c.errors + c.shed;
  return n;
}

uint64_t Accounting::completed() const {
  uint64_t n = 0;
  for (const Counts& c : counts_) n += c.ok;
  return n;
}

void Accounting::NewSegment() {
  for (int c = 0; c < kNumClasses; ++c) segment_starts_[c].push_back(lat_[c].size());
}

void Accounting::ReportLatency(Metrics* m, const std::vector<bool>& use) {
  for (int c = 0; c < kNumClasses; ++c) {
    std::vector<double>& v = lat_[c];
    if (v.empty()) continue;
    std::vector<double> p50s, p99s;
    std::vector<size_t> bounds = segment_starts_[c];
    bounds.push_back(v.size());
    for (size_t s = 0; s + 1 < bounds.size(); ++s) {
      if (bounds[s + 1] - bounds[s] < 20) continue;
      if (s < use.size() && !use[s]) continue;
      std::vector<double> slice(v.begin() + static_cast<ptrdiff_t>(bounds[s]),
                                v.begin() + static_cast<ptrdiff_t>(bounds[s + 1]));
      p50s.push_back(Percentile(&slice, 0.50));
      if (slice.size() >= 1000) p99s.push_back(Percentile(&slice, 0.99));
    }
    std::string base = ClassName(c);
    m->Set(base + "_p50_us",
           p50s.empty() ? Percentile(&v, 0.50) : Median(p50s), "us");
    if (v.size() >= 1000) {
      m->Set(base + "_p99_us",
             p99s.empty() ? Percentile(&v, 0.99) : Median(p99s), "us");
    }
    m->Set(base + "_samples", static_cast<double>(v.size()), "count");
  }
}

std::string Accounting::CountsJson() const {
  std::string out = "{";
  char buf[256];
  for (int c = 0; c < kNumClasses; ++c) {
    const Counts& k = counts_[c];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"attempted\": %llu, \"failed\": %llu, "
                  "\"errors\": %llu, \"shed\": %llu, \"mismatches\": %llu}",
                  c == 0 ? "" : ", ", ClassName(c),
                  static_cast<unsigned long long>(k.attempted),
                  static_cast<unsigned long long>(k.errors + k.shed),
                  static_cast<unsigned long long>(k.errors),
                  static_cast<unsigned long long>(k.shed),
                  static_cast<unsigned long long>(k.mismatches));
    out += buf;
  }
  return out + "}";
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v->size())));
  if (rank == 0) rank = 1;
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

// ---------------------------------------------------------------- tracing

uint32_t Tracer::Begin(const char* name, uint32_t parent, uint64_t request) {
  if (!enabled_ || spans_.size() >= kMaxSpans) return 0;
  spans_.push_back({name, NowUs(), -1.0, parent, request});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_us = NowUs();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_us >= 0 && name == s.name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

double Tracer::MedianUs(const std::string& name) const {
  return Median(Durations(name));
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# id\tparent\trequest\tname\tstart_us\tend_us\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%llu\t%s\t%.3f\t%.3f\n", i + 1, s.parent,
                 static_cast<unsigned long long>(s.request), s.name,
                 s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

void WriteSpans(const Options& opts, const Tracer& tracer, Metrics* m) {
  std::string path = opts.trace_dir + "/" + opts.workload + "-seed" +
                     std::to_string(opts.seed) + ".spans.tsv";
  if (!opts.trace_dir.empty() && !tracer.Write(path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
  }
  m->Set("trace.spans", static_cast<double>(tracer.size()), "count");
}

// ----------------------------------------------------------------- oracle

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

gom::Result<Corners> ReadCorners(gom::ObjectManager* om, gom::Oid cuboid) {
  static const char* const kCorners[4] = {"V1", "V2", "V4", "V5"};
  static const char* const kAxes[3] = {"X", "Y", "Z"};
  Corners c{};
  for (int k = 0; k < 4; ++k) {
    GOMFM_ASSIGN_OR_RETURN(gom::Value ref, om->GetAttribute(cuboid, kCorners[k]));
    GOMFM_ASSIGN_OR_RETURN(gom::Oid v, ref.AsRef());
    for (int a = 0; a < 3; ++a) {
      GOMFM_ASSIGN_OR_RETURN(gom::Value x, om->GetAttribute(v, kAxes[a]));
      GOMFM_ASSIGN_OR_RETURN(c[3 * k + a], x.AsDouble());
    }
  }
  return c;
}

double CornerVolume(const Corners& c) {
  auto edge = [&](int k) {
    double dx = c[3 * k] - c[0], dy = c[3 * k + 1] - c[1],
           dz = c[3 * k + 2] - c[2];
    return std::sqrt(dx * dx + dy * dy + dz * dz);
  };
  return edge(1) * edge(2) * edge(3);
}

void ScaleCorners(Corners* c, double sx, double sy, double sz) {
  for (int k = 0; k < 4; ++k) {
    (*c)[3 * k] *= sx;
    (*c)[3 * k + 1] *= sy;
    (*c)[3 * k + 2] *= sz;
  }
}

void RotateCorners(Corners* c, int64_t axis, double angle) {
  // Right-handed rotation about the X, Y or Z axis through the origin.
  double co = std::cos(angle), si = std::sin(angle);
  int i = axis % 3 == 0 ? 1 : (axis % 3 == 1 ? 2 : 0);  // first rotated axis
  int j = axis % 3 == 0 ? 2 : (axis % 3 == 1 ? 0 : 1);  // second
  for (int k = 0; k < 4; ++k) {
    double a = (*c)[3 * k + i], b = (*c)[3 * k + j];
    (*c)[3 * k + i] = a * co - b * si;
    (*c)[3 * k + j] = a * si + b * co;
  }
}

void TranslateCorners(Corners* c, double dx, double dy, double dz) {
  for (int k = 0; k < 4; ++k) {
    (*c)[3 * k] += dx;
    (*c)[3 * k + 1] += dy;
    (*c)[3 * k + 2] += dz;
  }
}

MeshFacts ComputeMeshFacts(const gom::geomwl::TriangleMesh& mesh) {
  MeshFacts f;
  double signed_volume = 0;
  for (size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
    const auto& a = mesh.vertices[mesh.indices[t]];
    const auto& b = mesh.vertices[mesh.indices[t + 1]];
    const auto& c = mesh.vertices[mesh.indices[t + 2]];
    double ux = b.x - a.x, uy = b.y - a.y, uz = b.z - a.z;
    double vx = c.x - a.x, vy = c.y - a.y, vz = c.z - a.z;
    double nx = uy * vz - uz * vy, ny = uz * vx - ux * vz,
           nz = ux * vy - uy * vx;
    f.area += 0.5 * std::sqrt(nx * nx + ny * ny + nz * nz);
    // a · (b × c) / 6: the signed tetrahedron against the origin.
    double cx = b.y * c.z - b.z * c.y, cy = b.z * c.x - b.x * c.z,
           cz = b.x * c.y - b.y * c.x;
    signed_volume += (a.x * cx + a.y * cy + a.z * cz) / 6.0;
  }
  f.volume = std::fabs(signed_volume);
  if (!mesh.vertices.empty()) {
    double lo[3], hi[3];
    const auto& v0 = mesh.vertices[0];
    lo[0] = hi[0] = v0.x;
    lo[1] = hi[1] = v0.y;
    lo[2] = hi[2] = v0.z;
    for (const auto& v : mesh.vertices) {
      const double p[3] = {v.x, v.y, v.z};
      for (int a = 0; a < 3; ++a) {
        lo[a] = std::min(lo[a], p[a]);
        hi[a] = std::max(hi[a], p[a]);
      }
    }
    double dx = hi[0] - lo[0], dy = hi[1] - lo[1], dz = hi[2] - lo[2];
    f.diag = std::sqrt(dx * dx + dy * dy + dz * dz);
  }
  return f;
}

Shadow::Shadow(size_t objects, size_t indexed)
    : hist_(objects), indexed_(indexed) {}

void Shadow::Init(size_t i, const Row& v) {
  hist_[i] = {Version{v, 0, kOpen}};
  if (i < indexed_) index_.insert({v[0], static_cast<uint32_t>(i)});
}

void Shadow::Issue(size_t i, const Row& v, uint64_t seq) {
  hist_[i].push_back(Version{v, seq, kOpen});
  if (i < indexed_) index_.insert({v[0], static_cast<uint32_t>(i)});
}

void Shadow::Complete(size_t i, uint64_t seq) {
  std::vector<Version>& h = hist_[i];
  if (h.size() >= 2) h[h.size() - 2].until = seq;
}

void Shadow::Trim(size_t i, uint64_t oldest_inflight_send) {
  std::vector<Version>& h = hist_[i];
  size_t drop = 0;
  while (drop + 1 < h.size() && h[drop].until < oldest_inflight_send) ++drop;
  if (drop == 0) return;
  if (i < indexed_) {
    for (size_t k = 0; k < drop; ++k) {
      auto it = index_.find({h[k].v[0], static_cast<uint32_t>(i)});
      if (it != index_.end()) index_.erase(it);
    }
  }
  h.erase(h.begin(), h.begin() + static_cast<ptrdiff_t>(drop));
}

bool Shadow::Observable(size_t i, int col, double x, uint64_t sent,
                        uint64_t answered) const {
  for (const Version& ver : hist_[i]) {
    if (ver.from <= answered && ver.until >= sent && Near(ver.v[col], x)) {
      return true;
    }
  }
  return false;
}

std::string Shadow::CheckRange(const std::vector<uint32_t>& answer, double lo,
                               double hi, uint64_t sent,
                               uint64_t answered) const {
  auto tol = [](double v) { return 1e-9 * std::max(1.0, std::fabs(v)); };
  std::set<uint32_t> got;
  for (uint32_t i : answer) {
    if (i >= indexed_) return "answer names an object outside the range type";
    if (!got.insert(i).second) return "answer repeats an object";
  }
  std::set<uint32_t> consider = got;
  for (auto it = index_.lower_bound({lo - tol(lo), 0});
       it != index_.end() && it->first <= hi + tol(hi); ++it) {
    consider.insert(it->second);
  }
  for (uint32_t i : consider) {
    bool must_in = true, must_out = true, any = false;
    for (const Version& ver : hist_[i]) {
      if (ver.from > answered || ver.until < sent) continue;
      any = true;
      double v = ver.v[0];
      if (!(v > lo + tol(lo) && v < hi - tol(hi))) must_in = false;
      if (!(v < lo - tol(lo) || v > hi + tol(hi))) must_out = false;
    }
    if (!any) return "no observable version";
    bool present = got.count(i) > 0;
    if (present && must_out) {
      return "object " + std::to_string(i) + " returned but outside the range";
    }
    if (!present && must_in) {
      return "object " + std::to_string(i) + " inside the range but missing";
    }
  }
  return "";
}

bool RowsToIndices(const gom::server::RowSet& rows,
                   const std::unordered_map<uint64_t, uint32_t>& index_of,
                   std::vector<uint32_t>* out) {
  out->clear();
  for (const auto& row : rows) {
    if (row.empty()) return false;
    auto ref = row[0].AsRef();
    if (!ref.ok()) return false;
    auto it = index_of.find(ref->raw);
    if (it == index_of.end()) return false;
    out->push_back(it->second);
  }
  return true;
}

// ----------------------------------------------------------------- health

double CalibrationMs() {
  double t0 = NowUs();
  uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x & 0xff;
  }
  double ms = (NowUs() - t0) / 1000.0;
  // Keep the loop observable so it is not folded away.
  if (acc == 42) std::fprintf(stderr, "#\n");
  return ms;
}

double MemoryLatencyNs() {
  // A random cycle (Sattolo's shuffle) over 16 MiB, far beyond the
  // per-core caches: each step is a dependent load, so the mean step time
  // is the memory latency the run sees. It rises when other tenants
  // contend for the shared cache. The buffer is freed again, so it does
  // not count toward the run's peak memory.
  constexpr uint32_t kSlots = 4u << 20;
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  constexpr int kSteps = 2'000'000;
  uint32_t p = 0;
  double t0 = NowUs();
  for (int i = 0; i < kSteps; ++i) p = next[p];
  double ns = (NowUs() - t0) * 1e3 / kSteps;
  if (p == UINT32_MAX) std::fprintf(stderr, "#\n");
  return ns;
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.invol_ctx_switches = static_cast<double>(ru.ru_nivcsw);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

// --------------------------------------------------------------- sampling

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(double u01) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u01);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

// ----------------------------------------------------------------- output

void PrintResult(const Options& opts, Accounting& acct, const Metrics& m,
                 const std::string& problem) {
  std::printf("# workload %s seed %llu seconds %d trace %d%s\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.quick ? " (short)" : "");
  for (int c = 0; c < kNumClasses; ++c) {
    const Accounting::Counts& k = acct.counts(c);
    if (k.attempted == 0) continue;
    std::printf("#   %-8s attempted %10llu  failed %llu (errors %llu, shed "
                "%llu)  mismatches %llu\n",
                ClassName(c), static_cast<unsigned long long>(k.attempted),
                static_cast<unsigned long long>(k.errors + k.shed),
                static_cast<unsigned long long>(k.errors),
                static_cast<unsigned long long>(k.shed),
                static_cast<unsigned long long>(k.mismatches));
  }
  if (!problem.empty()) std::printf("# FAILED: %s\n", problem.c_str());
  std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"classes\": %s, \"metrics\": %s}\n",
              problem.empty() ? "true" : "false",
              static_cast<unsigned long long>(acct.attempted()),
              static_cast<unsigned long long>(acct.failed()),
              acct.CountsJson().c_str(), m.Json().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
