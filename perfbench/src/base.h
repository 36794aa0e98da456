// The base every workload builds on (the §7.1 cuboids with ⟨⟨volume,
// weight⟩⟩ materialized, optionally MeshParts), the benchmark's own oracle
// over it, the layers' public counters and the owner-path layer probes.

#ifndef PERFBENCH_BASE_H_
#define PERFBENCH_BASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "geomwl/mesh_schema.h"
#include "storage/group_commit.h"
#include "workload/driver.h"

namespace perfbench {

inline constexpr double kIronDensity = 7.86;  // the population's material

struct Base {
  std::unique_ptr<gom::workload::Environment> env;
  gom::workload::CuboidSchema geo;
  gom::geomwl::MeshSchema mesh;
  gom::FunctionId set_density = gom::kInvalidFunctionId;
  std::vector<gom::Oid> cuboids;
  std::vector<gom::Oid> parts;
  gom::GmrId cuboid_gmr = gom::kInvalidGmrId;
  gom::GmrId mesh_gmr = gom::kInvalidGmrId;
};

/// Populates `num_cuboids` cuboids (edges uniform in [1, 20) from `seed`,
/// one Iron material) and materializes ⟨⟨volume, weight⟩⟩.
gom::Status PopulateCuboidBase(Base* b, size_t num_cuboids, uint64_t seed);

/// Adds `num_parts` MeshParts (rings x segments rocks from `seed`),
/// materializes ⟨⟨surface_area, mesh_volume, mesh_weight, bbox_diag⟩⟩ and
/// registers the `set_density` update operation.
gom::Status PopulateMeshBase(Base* b, size_t num_parts, uint64_t seed,
                             uint32_t rings, uint32_t segments);

/// The benchmark's own state of the base: the latest corners of every
/// cuboid, the latest mesh and density of every part, and the observable
/// versions of every function value. Object index i < n_cuboids is cuboid
/// i; i >= n_cuboids is part i - n_cuboids. Cuboid columns: volume,
/// weight. Part columns: surface area, |volume|, weight, bbox diagonal.
struct Oracle {
  size_t n_cuboids = 0;
  std::vector<Corners> corners;
  std::vector<bool> rotated;  // a rotated cuboid is no longer axis-aligned
  std::vector<gom::geomwl::TriangleMesh> meshes;
  std::vector<double> density;
  std::unique_ptr<Shadow> shadow;
  std::unordered_map<uint64_t, uint32_t> index_of;  // Oid -> object index
  double max_volume = 0;

  static Shadow::Row CuboidRow(const Corners& c);
  static Shadow::Row PartRow(const gom::geomwl::TriangleMesh& m, double d);
};

/// Reads every object through the ObjectManager and computes its values.
gom::Status BuildOracle(Base& b, Oracle* o);

/// Every valid stored result of the GMRs against the oracle ("" = holds).
/// Reads row memory only, without touching pages.
std::string CheckStoredRows(Base& b, const Oracle& o);

/// End of run: objects re-read and recomputed must match the oracle's
/// prediction and the program's (owner-path) forward answers.
std::string FinalCheck(Base& b, const Oracle& o);

/// A random update of cuboid `i` (scale, rotate or translate), applied to
/// the oracle's corners; fills the operation, its arguments and the
/// values it must produce. `problem` is set when a property the method
/// must have fails (scale multiplies an axis-aligned cuboid's volume by
/// sx*sy*sz; rotate and translate keep it).
struct UpdateOp {
  gom::FunctionId op = gom::kInvalidFunctionId;
  std::vector<gom::Value> args;
  Shadow::Row predicted{};
};
UpdateOp CuboidUpdate(Base& b, Oracle* o, gom::Rng* rng, uint32_t i,
                      double scale_lo, double scale_hi, std::string* problem);

/// `range c: Cuboid retrieve c where c.volume > lo and c.volume < hi`.
std::string RangeQuery(double lo, double hi);

/// Public counters of every layer, read while no other thread runs.
struct Counters {
  gom::GmrStats::Counters gmr;
  uint64_t pool_hits = 0, pool_misses = 0, evictions = 0;
  uint64_t disk_reads = 0, disk_writes = 0;
  uint64_t wal_appends = 0, wal_flushes = 0;
  gom::GroupCommitter::Snapshot gc;
  uint64_t nodes = 0, object_updates = 0;
  double sim_s = 0;

  static Counters Read(gom::workload::Environment& env);
};

/// What a phase did, for the per-operation ratios.
struct PhaseWork {
  double ops = 0;
  double updates = 0;
  double backward_rows = 0;
  double backward_answers = 0;
};

/// gmr.*, funclang.nodes_per_op, gom.*, storage.* from counter deltas.
void ReportCounters(const Counters& a, const Counters& b, const PhaseWork& w,
                    Metrics* m);

/// Owner-path probes, timed as spans, each answer checked:
/// gmr.forward_lookup_ns, gmr.backward_range_us, funclang.eval_volume_us
/// and, with parts, geomwl.surface_area_eval_us. Returns a problem or "".
std::string OwnerProbes(Base& b, const Oracle& o, uint64_t seed, size_t n,
                        Tracer* tracer, Metrics* m);

/// The host probes, taken at the start and at the end of every run.
struct HostProbe {
  double calibration_ms = 0;
  double mem_latency_ns = 0;
  CpuTicks ticks;
  static HostProbe Take();
};

/// host.calibration_ms and host.mem_latency_ns (means of the start and end
/// probes), host.steal_share (the machine's steal ticks over the run as a
/// share of all its ticks), proc.cpu_s, proc.invol_ctx_switches and
/// peak_rss_mb.
void ReportHealth(const HostProbe& start, Metrics* m);

}  // namespace perfbench

#endif  // PERFBENCH_BASE_H_
