// Shared pieces of the repo benchmark: options, per-class accounting,
// metrics, the span tracer, the independent oracle and health probes.
//
// Everything here lives outside the program under test. Layers are timed
// from the outside (spans around calls into their public functions) and
// their public counters are read before and after a phase.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geomwl/mesh.h"
#include "gom/ids.h"
#include "gom/object_manager.h"
#include "server/wire.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds on the steady clock since the first call.
double NowUs();

/// The next event number: every request send and answer gets one, so the
/// oracle can tell which values a request could observe.
uint64_t NextSeq();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Short mode: a small base and a short run that still executes every
  /// check, for the benchmark's own tests.
  bool quick = false;
  std::string trace_dir;  // where the traced run writes its spans
};

// ---------------------------------------------------------------- metrics

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}`.
  std::string Json() const;
  bool Has(const std::string& name) const { return index_.count(name) > 0; }
  double Get(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

// ------------------------------------------------------------- accounting

enum OpClass { kForward = 0, kBackward, kUpdate, kGomql, kNumClasses };
const char* ClassName(int c);

/// Attempted / failed operations and latencies per class. An operation
/// fails when the program answers with an error or sheds it (kOverloaded);
/// a wrong answer is a mismatch, which makes the run incorrect.
class Accounting {
 public:
  struct Counts {
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    uint64_t mismatches = 0;
  };

  void Ok(int c, double us, bool record_latency = true);
  void Error(int c);
  void Shed(int c);
  void Mismatch(int c);

  uint64_t attempted() const;
  uint64_t failed() const;
  uint64_t completed() const;  // answered correctly
  const Counts& counts(int c) const { return counts_[c]; }

  /// Starts a timing segment. A class's p50 is the median of its segments'
  /// p50s, and its p99 the median of the p99s of segments holding at least
  /// 1000 of its samples, so one slow stretch of the host does not set the
  /// run.
  void NewSegment();

  /// `forward_p50_us` etc. for every class with samples; p99 only when the
  /// class holds at least 1000 samples. With `use` given, only segment s
  /// with use[s] counts toward the medians.
  void ReportLatency(Metrics* m, const std::vector<bool>& use = {});
  /// Per-class attempted/failed/mismatch counts as a JSON object.
  std::string CountsJson() const;

 private:
  Counts counts_[kNumClasses];
  std::vector<double> lat_[kNumClasses];
  std::vector<size_t> segment_starts_[kNumClasses];
};

/// Sorts `v` and returns the nearest-rank percentile (0 for no samples).
double Percentile(std::vector<double>* v, double p);
double Median(std::vector<double> v);

// ---------------------------------------------------------------- tracing

/// In-memory spans recorded around calls into the program's layers: name,
/// start, end, parent span and request id. Written out when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    uint32_t parent;  // 0 = root
    uint64_t request;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its id (0 when tracing is off or the buffer is
  /// full — End(0) is a no-op).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request);
  void End(uint32_t id);

  /// Durations (µs) of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Median duration (µs) of spans called `name`; 0 when there are none.
  double MedianUs(const std::string& name) const;
  size_t size() const { return spans_.size(); }

  /// One line per span: id, parent, request, name, start, end.
  bool Write(const std::string& path) const;

 private:
  static constexpr size_t kMaxSpans = 1000000;
  bool enabled_;
  std::vector<Span> spans_;
};

/// Writes the spans to `<trace_dir>/<workload>-seed<n>.spans.tsv` and
/// reports their count as `trace.spans`.
void WriteSpans(const Options& opts, const Tracer& tracer, Metrics* m);

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint32_t parent = 0,
             uint64_t request = 0)
      : t_(t), id_(t->Begin(name, parent, request)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* t_;
  uint32_t id_;
};

// ----------------------------------------------------------------- oracle

/// Relative closeness used by every value check.
bool Near(double a, double b);

/// The four corners the volume depends on: V1 and its neighbours V2, V4,
/// V5, each (x, y, z).
using Corners = std::array<double, 12>;

/// Reads V1, V2, V4 and V5 of a cuboid through the ObjectManager.
gom::Result<Corners> ReadCorners(gom::ObjectManager* om, gom::Oid cuboid);

/// |V1V2| · |V1V4| · |V1V5|, computed here, not by the program.
double CornerVolume(const Corners& c);

/// The benchmark's own versions of the cuboid update operations.
void ScaleCorners(Corners* c, double sx, double sy, double sz);
void RotateCorners(Corners* c, int64_t axis, double angle);
void TranslateCorners(Corners* c, double dx, double dy, double dz);

/// Surface area, |signed volume| and bounding-box diagonal of a mesh, by
/// the benchmark's own loops over the decoded triangles.
struct MeshFacts {
  double area = 0;
  double volume = 0;
  double diag = 0;
};
MeshFacts ComputeMeshFacts(const gom::geomwl::TriangleMesh& mesh);

/// Values every object can take over the run, with the interval in which
/// each could be observed. Sequence numbers count send and receive events
/// of the load generator. A version produced by an update issued at `from`
/// can be observed by any request answered after `from`; the version it
/// replaces can be observed by requests sent up to the update's answer.
/// Objects [0, indexed) have column 0 kept in an ordered index for
/// checking backward answers.
class Shadow {
 public:
  static constexpr int kCols = 4;
  using Row = std::array<double, kCols>;
  static constexpr uint64_t kOpen = UINT64_MAX;

  Shadow(size_t objects, size_t indexed);

  void Init(size_t i, const Row& v);
  const Row& Latest(size_t i) const { return hist_[i].back().v; }
  void Issue(size_t i, const Row& v, uint64_t seq);
  void Complete(size_t i, uint64_t seq);
  void Trim(size_t i, uint64_t oldest_inflight_send);

  /// True when some version observable in [sent, answered] has column
  /// `col` near `x`.
  bool Observable(size_t i, int col, double x, uint64_t sent,
                  uint64_t answered) const;

  /// Checks a backward/range answer (object indices, possibly with
  /// duplicates) for lo < col0 < hi: every object certainly inside must be
  /// present, none certainly outside may be. Returns "" when it holds.
  std::string CheckRange(const std::vector<uint32_t>& answer, double lo,
                         double hi, uint64_t sent, uint64_t answered) const;

 private:
  struct Version {
    Row v;
    uint64_t from;
    uint64_t until;
  };
  std::vector<std::vector<Version>> hist_;
  size_t indexed_;
  std::multiset<std::pair<double, uint32_t>> index_;
};

/// Sequence number for "now" once no request is in flight: only the
/// latest version of each object is observable.
inline constexpr uint64_t kNow = Shadow::kOpen - 1;

/// Maps answer rows (first column an object reference) to object indices;
/// false when a row is malformed or names an unknown object.
bool RowsToIndices(const gom::server::RowSet& rows,
                   const std::unordered_map<uint64_t, uint32_t>& index_of,
                   std::vector<uint32_t>* out);

// ----------------------------------------------------------------- health

/// A fixed pure-CPU loop, timed (ms): tells a slowed host from a slowed
/// program.
double CalibrationMs();

/// Mean dependent-load latency (ns) over a buffer far larger than the
/// per-core caches: tells a host whose shared cache is contended.
double MemoryLatencyNs();

/// Machine-wide CPU time from /proc/stat, in clock ticks: the time the
/// hypervisor ran other guests on this machine's CPUs (steal) and all of
/// it. Zero when /proc/stat cannot be read.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

struct Usage {
  double cpu_s = 0;
  double invol_ctx_switches = 0;
  double peak_rss_mb = 0;
};
Usage ReadUsage();

// --------------------------------------------------------------- sampling

/// Zipf(s) over ranks 0..n-1.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(double u01) const;

 private:
  std::vector<double> cdf_;
};

/// Prints the result block: a human-readable summary, then one line
/// `PERFBENCH_RESULT {...}` with every metric and the per-class counts.
void PrintResult(const Options& opts, Accounting& acct, const Metrics& m,
                 const std::string& problem);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
