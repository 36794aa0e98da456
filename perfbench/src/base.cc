#include "base.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "funclang/interpreter.h"
#include "geomwl/geom_stack.h"
#include "workload/stack.h"

namespace perfbench {

using namespace gom;

Status PopulateCuboidBase(Base* b, size_t num_cuboids, uint64_t seed) {
  workload::Environment& env = *b->env;
  GOMFM_ASSIGN_OR_RETURN(b->geo, workload::CuboidSchema::Declare(
                                     &env.schema, &env.registry));
  GOMFM_RETURN_IF_ERROR(
      workload::PopulateCuboids(&env.om, b->geo, num_cuboids, seed, &b->cuboids));
  GmrSpec spec = workload::VolumeSpec(b->geo);
  spec.name = "volume_weight";
  spec.functions.push_back(b->geo.weight);
  GOMFM_ASSIGN_OR_RETURN(b->cuboid_gmr, env.mgr.Materialize(spec));
  return Status::Ok();
}

namespace {

/// Registers `set_density(part, d)`: a Density write inside an operation
/// bracket, so the wire can carry it as an update operation.
Result<FunctionId> RegisterSetDensity(workload::Environment* env,
                                      const geomwl::MeshSchema& mesh) {
  FunctionId id = static_cast<FunctionId>(env->registry.size());
  return env->registry.Register(funclang::FunctionDef{
      kInvalidFunctionId,
      "set_density",
      {{"self", TypeRef::Object(mesh.mesh_part)},
       {"density", TypeRef::Float()}},
      TypeRef::Void(),
      {},
      [id](funclang::EvalContext& ctx,
           const std::vector<Value>& args) -> Result<Value> {
        GOMFM_ASSIGN_OR_RETURN(Oid self, args[0].AsRef());
        ObjectManager& om = ctx.om();
        GOMFM_RETURN_IF_ERROR(om.BeginOperation(self, id, args));
        Status written = om.SetAttribute(self, "Density", args[1]);
        GOMFM_RETURN_IF_ERROR(om.EndOperation(self, id));
        GOMFM_RETURN_IF_ERROR(written);
        return Value::Null();
      },
      false});
}

Status ReadPart(ObjectManager* om, Oid part, geomwl::TriangleMesh* mesh,
                double* density) {
  GOMFM_ASSIGN_OR_RETURN(Value bytes, om->GetAttribute(part, "Mesh"));
  GOMFM_ASSIGN_OR_RETURN(const std::vector<uint8_t>* raw, bytes.AsBytes());
  GOMFM_ASSIGN_OR_RETURN(*mesh, geomwl::TriangleMesh::DecodeBytes(*raw));
  GOMFM_ASSIGN_OR_RETURN(Value d, om->GetAttribute(part, "Density"));
  GOMFM_ASSIGN_OR_RETURN(*density, d.AsDouble());
  return Status::Ok();
}

std::string Describe(const char* what, uint32_t obj, double got, double want) {
  char buf[200];
  std::snprintf(buf, sizeof buf, "%s of object %u: program %.17g, expected %.17g",
                what, obj, got, want);
  return buf;
}

}  // namespace

Status PopulateMeshBase(Base* b, size_t num_parts, uint64_t seed,
                        uint32_t rings, uint32_t segments) {
  workload::Environment& env = *b->env;
  GOMFM_ASSIGN_OR_RETURN(b->mesh, geomwl::MeshSchema::Declare(&env.schema,
                                                              &env.registry));
  b->mesh.DeclareRelevantAttrs(&env.mgr);
  GOMFM_RETURN_IF_ERROR(geomwl::PopulateParts(&env.om, b->mesh, num_parts,
                                              seed, rings, segments, &b->parts));
  GOMFM_ASSIGN_OR_RETURN(b->mesh_gmr,
                         env.mgr.Materialize(geomwl::MeshGmrSpec(b->mesh)));
  GOMFM_ASSIGN_OR_RETURN(b->set_density, RegisterSetDensity(&env, b->mesh));
  return Status::Ok();
}

// ----------------------------------------------------------------- oracle

Shadow::Row Oracle::CuboidRow(const Corners& c) {
  double v = CornerVolume(c);
  return {v, v * kIronDensity, 0, 0};
}

Shadow::Row Oracle::PartRow(const geomwl::TriangleMesh& m, double d) {
  MeshFacts f = ComputeMeshFacts(m);
  return {f.area, f.volume, f.volume * d, f.diag};
}

Status BuildOracle(Base& b, Oracle* o) {
  ObjectManager* om = &b.env->om;
  o->n_cuboids = b.cuboids.size();
  o->shadow = std::make_unique<Shadow>(b.cuboids.size() + b.parts.size(),
                                       b.cuboids.size());
  o->corners.resize(b.cuboids.size());
  o->rotated.assign(b.cuboids.size(), false);
  for (size_t i = 0; i < b.cuboids.size(); ++i) {
    GOMFM_ASSIGN_OR_RETURN(o->corners[i], ReadCorners(om, b.cuboids[i]));
    Shadow::Row row = Oracle::CuboidRow(o->corners[i]);
    o->shadow->Init(i, row);
    o->max_volume = std::max(o->max_volume, row[0]);
    o->index_of[b.cuboids[i].raw] = static_cast<uint32_t>(i);
  }
  o->meshes.resize(b.parts.size());
  o->density.resize(b.parts.size());
  for (size_t p = 0; p < b.parts.size(); ++p) {
    GOMFM_RETURN_IF_ERROR(ReadPart(om, b.parts[p], &o->meshes[p], &o->density[p]));
    o->shadow->Init(o->n_cuboids + p,
                    Oracle::PartRow(o->meshes[p], o->density[p]));
    o->index_of[b.parts[p].raw] = static_cast<uint32_t>(o->n_cuboids + p);
  }
  return Status::Ok();
}

std::string CheckStoredRows(Base& b, const Oracle& o) {
  std::string problem;
  auto check = [&](GmrId id, int cols) {
    auto gmr = b.env->mgr.Get(id);
    if (!gmr.ok()) {
      problem = "GMR missing: " + gmr.status().ToString();
      return;
    }
    size_t rows = 0;
    (*gmr)->ForEachRow([&](RowId, const Gmr::Row& row) {
      ++rows;
      auto ref = row.args.empty() ? Result<Oid>(Status::Internal("no args"))
                                  : row.args[0].AsRef();
      auto it = ref.ok() ? o.index_of.find(ref->raw) : o.index_of.end();
      if (it == o.index_of.end()) {
        problem = "GMR row for an unknown object";
        return false;
      }
      const Shadow::Row& want = o.shadow->Latest(it->second);
      for (int c = 0; c < cols; ++c) {
        if (!row.valid[c]) continue;
        auto got = row.results[c].AsDouble();
        if (!got.ok() || !Near(*got, want[c])) {
          problem = Describe("stored result", it->second, got.ok() ? *got : NAN,
                             want[c]);
          return false;
        }
      }
      return true;
    });
    if (problem.empty() && rows == 0) problem = "GMR has no rows";
  };
  check(b.cuboid_gmr, 2);
  if (problem.empty() && b.mesh_gmr != kInvalidGmrId) check(b.mesh_gmr, 4);
  return problem;
}

std::string FinalCheck(Base& b, const Oracle& o) {
  std::string problem = CheckStoredRows(b, o);
  if (!problem.empty()) return problem;
  workload::Environment& env = *b.env;
  // Compares the oracle's prediction and the program's forward answer with
  // `want`, recomputed from what the ObjectManager holds now.
  auto compare = [&](uint32_t i, int col, FunctionId f, Oid obj,
                     double want) -> std::string {
    if (!Near(o.shadow->Latest(i)[col], want)) {
      return Describe("final prediction", i, o.shadow->Latest(i)[col], want);
    }
    auto got = env.mgr.ForwardLookup(f, {Value::Ref(obj)});
    if (!got.ok()) return "final forward lookup: " + got.status().ToString();
    if (!got->is_numeric() || !Near(*got->AsDouble(), want)) {
      return Describe("final forward answer", i,
                      got->is_numeric() ? *got->AsDouble() : NAN, want);
    }
    return "";
  };
  for (uint32_t i = 0; i < b.cuboids.size() && problem.empty(); ++i) {
    auto corners = ReadCorners(&env.om, b.cuboids[i]);
    if (!corners.ok()) return "final read: " + corners.status().ToString();
    Shadow::Row want = Oracle::CuboidRow(*corners);
    problem = compare(i, 0, b.geo.volume, b.cuboids[i], want[0]);
    if (problem.empty()) {
      problem = compare(i, 1, b.geo.weight, b.cuboids[i], want[1]);
    }
  }
  const FunctionId fns[4] = {b.mesh.surface_area, b.mesh.mesh_volume,
                             b.mesh.mesh_weight, b.mesh.bbox_diag};
  for (size_t p = 0; p < b.parts.size() && problem.empty(); ++p) {
    uint32_t i = static_cast<uint32_t>(o.n_cuboids + p);
    geomwl::TriangleMesh mesh;
    double density = 0;
    Status st = ReadPart(&env.om, b.parts[p], &mesh, &density);
    if (!st.ok()) return "final part read: " + st.ToString();
    Shadow::Row want = Oracle::PartRow(mesh, density);
    for (int c = 0; c < 4 && problem.empty(); ++c) {
      problem = compare(i, c, fns[c], b.parts[p], want[c]);
    }
  }
  return problem;
}

UpdateOp CuboidUpdate(Base& b, Oracle* o, Rng* rng, uint32_t i,
                      double scale_lo, double scale_hi, std::string* problem) {
  UpdateOp u;
  Oid c = b.cuboids[i];
  Corners& k = o->corners[i];
  double before = CornerVolume(k);
  switch (rng->UniformInt(0, 2)) {
    case 0: {
      double s[3];
      for (double& f : s) f = rng->UniformDouble(scale_lo, scale_hi);
      u.op = b.geo.op_scale;
      u.args = {Value::Ref(c), Value::Float(s[0]), Value::Float(s[1]),
                Value::Float(s[2])};
      ScaleCorners(&k, s[0], s[1], s[2]);
      if (!o->rotated[i] && !Near(CornerVolume(k), before * s[0] * s[1] * s[2])) {
        *problem = "scale did not multiply the volume by sx*sy*sz";
      }
      break;
    }
    case 1: {
      int64_t axis = rng->UniformInt(0, 2);
      double angle = rng->UniformDouble(0, 3.14159);
      u.op = b.geo.op_rotate;
      u.args = {Value::Ref(c), Value::Int(axis), Value::Float(angle)};
      RotateCorners(&k, axis, angle);
      o->rotated[i] = true;
      if (!Near(CornerVolume(k), before)) *problem = "rotate changed the volume";
      break;
    }
    default: {
      double d[3];
      for (double& x : d) x = rng->UniformDouble(-10, 10);
      u.op = b.geo.op_translate;
      u.args = {Value::Ref(c), Value::Float(d[0]), Value::Float(d[1]),
                Value::Float(d[2])};
      TranslateCorners(&k, d[0], d[1], d[2]);
      if (!Near(CornerVolume(k), before)) {
        *problem = "translate changed the volume";
      }
    }
  }
  u.predicted = Oracle::CuboidRow(k);
  return u;
}

std::string RangeQuery(double lo, double hi) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "range c: Cuboid retrieve c where c.volume > %.17g and "
                "c.volume < %.17g",
                lo, hi);
  return buf;
}

// --------------------------------------------------------------- counters

Counters Counters::Read(workload::Environment& env) {
  Counters c;
  c.gmr = env.mgr.AggregateStats();
  c.pool_hits = env.pool.hits();
  c.pool_misses = env.pool.misses();
  c.evictions = env.pool.evictions();
  c.disk_reads = env.disk.reads();
  c.disk_writes = env.disk.writes();
  if (env.wal != nullptr) {
    c.wal_appends = env.wal->appends();
    c.wal_flushes = env.wal->flushes();
    if (env.wal->group_committer() != nullptr) {
      c.gc = env.wal->group_committer()->snapshot();
    }
  }
  c.nodes = env.interp.nodes_evaluated();
  c.object_updates = env.om.update_count();
  c.sim_s = env.clock.seconds();
  return c;
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double D(uint64_t a, uint64_t b) { return static_cast<double>(b - a); }
}  // namespace

void ReportCounters(const Counters& a, const Counters& b, const PhaseWork& w,
                    Metrics* m) {
  double hits = D(a.gmr.forward_hits, b.gmr.forward_hits);
  double lookups = hits + D(a.gmr.forward_invalid, b.gmr.forward_invalid) +
                   D(a.gmr.forward_misses, b.gmr.forward_misses);
  m->Set("gmr.forward_hit_ratio", Ratio(hits, lookups), "ratio");
  m->Set("gmr.invalidations_per_update",
         Ratio(D(a.gmr.invalidations, b.gmr.invalidations), w.updates), "count");
  m->Set("gmr.remats_per_update",
         Ratio(D(a.gmr.rematerializations, b.gmr.rematerializations),
               w.updates),
         "count");
  m->Set("gmr.demand_hot_remats",
         D(a.gmr.demand_hot_remats, b.gmr.demand_hot_remats), "count");
  m->Set("gmr.demand_cold_invalidations",
         D(a.gmr.demand_cold_invalidations, b.gmr.demand_cold_invalidations),
         "count");
  m->Set("gmr.rows_per_backward", Ratio(w.backward_rows, w.backward_answers),
         "count");
  m->Set("funclang.nodes_per_op", Ratio(D(a.nodes, b.nodes), w.ops), "count");
  m->Set("gom.object_updates_per_update_op",
         Ratio(D(a.object_updates, b.object_updates), w.updates), "count");
  double pool_hits = D(a.pool_hits, b.pool_hits);
  double pool_misses = D(a.pool_misses, b.pool_misses);
  m->Set("storage.buffer_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses),
         "ratio");
  m->Set("storage.buffer_misses_per_op", Ratio(pool_misses, w.ops), "count");
  m->Set("storage.evictions_per_op", Ratio(D(a.evictions, b.evictions), w.ops),
         "count");
  m->Set("storage.disk_reads_per_op", Ratio(D(a.disk_reads, b.disk_reads), w.ops),
         "count");
  m->Set("storage.disk_writes_per_op",
         Ratio(D(a.disk_writes, b.disk_writes), w.ops), "count");
  m->Set("storage.wal_appends_per_update",
         Ratio(D(a.wal_appends, b.wal_appends), w.updates), "count");
  // The group committer flushes through WriteAheadLog::FlushDirect, so
  // flushes() counts its device writes too; fsyncs also counts leader
  // attempts that found nothing to write.
  double fsyncs = D(a.gc.fsyncs, b.gc.fsyncs);
  m->Set("storage.device_flushes_per_update",
         Ratio(D(a.wal_flushes, b.wal_flushes), w.updates), "count");
  double grouped = D(a.gc.commits, b.gc.commits) -
                   D(a.gc.already_durable, b.gc.already_durable);
  m->Set("storage.gc_mean_group", Ratio(grouped, fsyncs), "count");
  m->Set("storage.gc_piggybacked", D(a.gc.piggybacked, b.gc.piggybacked),
         "count");
}

// ----------------------------------------------------------------- probes

std::string OwnerProbes(Base& b, const Oracle& o, uint64_t seed, size_t n,
                        Tracer* tracer, Metrics* m) {
  workload::Environment& env = *b.env;
  Rng rng(seed ^ 0x0B5E55EDULL);
  bool was_enabled = tracer->enabled();
  tracer->set_enabled(true);
  std::string problem;
  auto pick = [&] {
    return static_cast<uint32_t>(rng.UniformInt(0, b.cuboids.size() - 1));
  };
  for (size_t k = 0; k < n && problem.empty(); ++k) {
    uint32_t i = pick();
    Result<Value> v = Status::Internal("unset");
    {
      ScopedSpan s(tracer, "gmr.forward_lookup");
      v = env.mgr.ForwardLookup(b.geo.volume, {Value::Ref(b.cuboids[i])});
    }
    if (!v.ok() || !v->is_numeric() || !Near(*v->AsDouble(), o.shadow->Latest(i)[0])) {
      problem = "probe forward lookup of object " + std::to_string(i);
    }
  }
  for (size_t k = 0; k < n / 4 && problem.empty(); ++k) {
    double r = rng.UniformDouble(0, o.max_volume * 0.5);
    double eps = o.max_volume * 0.002;
    Result<std::vector<std::vector<Value>>> rows = Status::Internal("unset");
    {
      ScopedSpan s(tracer, "gmr.backward_range");
      rows = env.mgr.BackwardRange(b.geo.volume, r - eps, r + eps, false, false);
    }
    std::vector<uint32_t> idx;
    if (!rows.ok() || !RowsToIndices(*rows, o.index_of, &idx)) {
      problem = "probe backward range failed";
    } else {
      problem = o.shadow->CheckRange(idx, r - eps, r + eps, kNow, kNow);
    }
  }
  for (size_t k = 0; k < n && problem.empty(); ++k) {
    uint32_t i = pick();
    Result<Value> v = Status::Internal("unset");
    {
      ScopedSpan s(tracer, "funclang.eval_volume");
      v = env.interp.Invoke(b.geo.volume, {Value::Ref(b.cuboids[i])});
    }
    if (!v.ok() || !v->is_numeric() || !Near(*v->AsDouble(), o.shadow->Latest(i)[0])) {
      problem = "probe volume evaluation of object " + std::to_string(i);
    }
  }
  if (!b.parts.empty()) {
    double triangles = 0;
    for (const auto& mesh : o.meshes) triangles += mesh.triangle_count();
    m->Set("geomwl.triangles_per_part", triangles / o.meshes.size(), "count");
    for (size_t k = 0; k < n / 8 && problem.empty(); ++k) {
      size_t p = static_cast<size_t>(rng.UniformInt(0, b.parts.size() - 1));
      uint32_t i = static_cast<uint32_t>(o.n_cuboids + p);
      Result<Value> v = Status::Internal("unset");
      {
        ScopedSpan s(tracer, "geomwl.surface_area_eval");
        v = env.interp.Invoke(b.mesh.surface_area, {Value::Ref(b.parts[p])});
      }
      if (!v.ok() || !v->is_numeric() ||
          !Near(*v->AsDouble(), o.shadow->Latest(i)[0])) {
        problem = "probe surface_area evaluation of part " + std::to_string(p);
      }
    }
    m->Set("geomwl.surface_area_eval_us",
           tracer->MedianUs("geomwl.surface_area_eval"), "us");
  }
  tracer->set_enabled(was_enabled);
  m->Set("gmr.forward_lookup_ns", tracer->MedianUs("gmr.forward_lookup") * 1e3,
         "ns");
  m->Set("gmr.backward_range_us", tracer->MedianUs("gmr.backward_range"), "us");
  m->Set("funclang.eval_volume_us", tracer->MedianUs("funclang.eval_volume"),
         "us");
  return problem;
}

HostProbe HostProbe::Take() {
  HostProbe p;
  p.calibration_ms = CalibrationMs();
  p.mem_latency_ns = MemoryLatencyNs();
  p.ticks = ReadCpuTicks();
  return p;
}

void ReportHealth(const HostProbe& start, Metrics* m) {
  // Usage first: the end probe's buffer must not count toward peak memory.
  Usage u = ReadUsage();
  m->Set("proc.cpu_s", u.cpu_s, "s");
  m->Set("proc.invol_ctx_switches", u.invol_ctx_switches, "count");
  m->Set("peak_rss_mb", u.peak_rss_mb, "MB");
  HostProbe end = HostProbe::Take();
  m->Set("host.calibration_ms", 0.5 * (start.calibration_ms + end.calibration_ms),
         "ms");
  m->Set("host.calibration_start_ms", start.calibration_ms, "ms");
  m->Set("host.calibration_end_ms", end.calibration_ms, "ms");
  m->Set("host.mem_latency_ns", 0.5 * (start.mem_latency_ns + end.mem_latency_ns),
         "ns");
  m->Set("host.steal_share",
         Ratio(D(start.ticks.steal, end.ticks.steal),
               D(start.ticks.total, end.ticks.total)),
         "ratio");
}

}  // namespace perfbench
