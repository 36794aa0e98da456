// serve_read and serve_write: closed-loop clients over loopback against an
// in-process Server. One poll-multiplexed load-generator thread, the
// reactor and two workers: four threads, the machine's core count.
//
// Every answer is checked against the benchmark's own table (Oracle),
// which starts from vertex coordinates and mesh bytes read through the
// ObjectManager and follows each update by the benchmark's own arithmetic.

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "base.h"
#include "gomql/lexer.h"
#include "gomql/parser.h"
#include "gomql/planner.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

using namespace gom;

namespace {

constexpr size_t kConnections = 4;
constexpr size_t kWorkers = 2;
constexpr uint64_t kTraceEvery = 4;        // traced share of served requests
constexpr uint64_t kMaxReplayOps = 50000;  // bounds the replay's spans

struct ServeConfig {
  bool write = false;
  size_t cuboids = 8000;
  size_t parts = 64;
  uint32_t rings = 32;  // 32 x 32: about 2k triangles per part
  uint32_t segments = 32;
  size_t buffer_pages = 8192;  // holds the whole base
  int setups = 5;
  int phases = 30;  // timed segments, each on a fresh server
  double warmup_s = 1.0;
  size_t probes = 2000;
};

/// A built base with its server: what set-up produces.
struct Rig {
  Base base;
  std::unique_ptr<server::Server> server;
};

Status StartServer(Rig* rig) {
  server::ServerOptions sopts;
  sopts.num_workers = kWorkers;
  rig->server = std::make_unique<server::Server>(rig->base.env.get(), sopts);
  return rig->server->Start();
}

/// Set-up as a user pays it: build, populate, materialize, start serving.
Result<std::unique_ptr<Rig>> BuildRig(const ServeConfig& cfg, uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  GmrManagerOptions gopts;
  StorageOptions sopts;
  if (cfg.write) {
    gopts.demand.enabled = true;
    sopts.enable_wal = true;
    sopts.enable_group_commit = true;
    // Each update intent is committed through the group committer; with
    // relaxed intents an update appends to the log and nothing reaches the
    // device while the buffer holds the whole base.
    sopts.strict_intent_fsync = true;
  }
  rig->base.env =
      std::make_unique<workload::Environment>(cfg.buffer_pages, gopts, sopts);
  GOMFM_RETURN_IF_ERROR(PopulateCuboidBase(&rig->base, cfg.cuboids, seed));
  if (cfg.write) {
    GOMFM_RETURN_IF_ERROR(PopulateMeshBase(&rig->base, cfg.parts,
                                           seed ^ 0x5eedULL, cfg.rings,
                                           cfg.segments));
  }
  rig->base.env->InstallNotifier(workload::NotifyLevel::kObjDep);
  GOMFM_RETURN_IF_ERROR(StartServer(rig.get()));
  return rig;
}

// ---------------------------------------------------------- the workload

/// One operation of the mix, with what its answer must satisfy.
struct Op {
  int cls = kForward;
  server::Request req;
  uint32_t obj = 0;  // forward / update target
  int col = 0;       // forward: result column
  double lo = 0, hi = 0;
};

/// Generates the mix of one connection. Connection c updates only objects
/// whose index is c modulo the connection count, so an object never has
/// two updates in flight and the oracle can predict each update's result.
class Generator {
 public:
  Generator(const ServeConfig& cfg, Base* b, Oracle* o, uint64_t seed,
            size_t conn, size_t nconn)
      : cfg_(cfg), b_(b), o_(o),
        rng_(seed * 0x9E3779B97F4A7C15ULL + conn + 1),
        zipf_cuboids_(b->cuboids.size(), 1.2),
        zipf_parts_(std::max<size_t>(b->parts.size(), 1), 1.2) {
    for (size_t i = conn; i < b->cuboids.size(); i += nconn) {
      own_cuboids_.push_back(static_cast<uint32_t>(i));
    }
    for (size_t p = conn; p < b->parts.size(); p += nconn) {
      own_parts_.push_back(static_cast<uint32_t>(o->n_cuboids + p));
    }
    // Popularity ranks: a seeded permutation shared by every connection.
    Rng perm(seed ^ 0xC0FFEEULL);
    rank_cuboid_.resize(b->cuboids.size());
    for (size_t i = 0; i < rank_cuboid_.size(); ++i) rank_cuboid_[i] = i;
    std::shuffle(rank_cuboid_.begin(), rank_cuboid_.end(), perm.engine());
    rank_part_.resize(b->parts.size());
    for (size_t i = 0; i < rank_part_.size(); ++i) rank_part_[i] = i;
    std::shuffle(rank_part_.begin(), rank_part_.end(), perm.engine());
  }

  /// The next operation. `seq` is its send sequence number: an update
  /// registers its predicted version with it.
  Op Next(uint64_t seq, std::string* problem) {
    if (cfg_.write && rng_.UniformDouble(0, 1) < 0.25) {
      return Update(seq, problem);
    }
    double u = rng_.UniformDouble(0, 1);
    double backward_share = cfg_.write ? 0.17 : 0.20;
    if (u < backward_share) return Range(kBackward, 0.002);
    if (u < backward_share + 0.03) return Range(kGomql, 0.001);
    if (!cfg_.write) {
      return Forward(
          static_cast<uint32_t>(rng_.UniformInt(0, b_->cuboids.size() - 1)),
          static_cast<int>(rng_.UniformInt(0, 1)));
    }
    if (!b_->parts.empty() && rng_.UniformDouble(0, 1) < 0.10) {
      size_t p = rank_part_[zipf_parts_.Sample(rng_.UniformDouble(0, 1))];
      return Forward(static_cast<uint32_t>(o_->n_cuboids + p),
                     static_cast<int>(rng_.UniformInt(0, 3)));
    }
    size_t c = rank_cuboid_[zipf_cuboids_.Sample(rng_.UniformDouble(0, 1))];
    return Forward(static_cast<uint32_t>(c),
                   static_cast<int>(rng_.UniformInt(0, 1)));
  }

 private:
  Op Forward(uint32_t obj, int col) {
    Op op;
    op.cls = kForward;
    op.obj = obj;
    op.col = col;
    op.req.type = server::RequestType::kForward;
    if (obj < o_->n_cuboids) {
      op.req.function = col == 0 ? b_->geo.volume : b_->geo.weight;
      op.req.args = {Value::Ref(b_->cuboids[obj])};
    } else {
      const FunctionId fns[4] = {b_->mesh.surface_area, b_->mesh.mesh_volume,
                                 b_->mesh.mesh_weight, b_->mesh.bbox_diag};
      op.req.function = fns[col];
      op.req.args = {Value::Ref(b_->parts[obj - o_->n_cuboids])};
    }
    return op;
  }

  /// A narrow volume range: half-width `width` of the initial largest
  /// volume, centred uniformly in the lower half of the volume range.
  Op Range(int cls, double width) {
    Op op;
    op.cls = cls;
    double r = rng_.UniformDouble(0, o_->max_volume * 0.5);
    double eps = o_->max_volume * width;
    op.lo = r - eps;
    op.hi = r + eps;
    if (cls == kBackward) {
      op.req.type = server::RequestType::kBackward;
      op.req.function = b_->geo.volume;
      op.req.lo = op.lo;
      op.req.hi = op.hi;
      op.req.lo_inclusive = false;
      op.req.hi_inclusive = false;
    } else {
      op.req.type = server::RequestType::kGomql;
      op.req.text = RangeQuery(op.lo, op.hi);
    }
    return op;
  }

  Op Update(uint64_t seq, std::string* problem) {
    Op op;
    op.cls = kUpdate;
    op.req.type = server::RequestType::kUpdate;
    Shadow::Row predicted{};
    if (own_parts_.empty() || rng_.UniformDouble(0, 1) >= 0.2) {
      uint32_t i = own_cuboids_[rng_.UniformInt(0, own_cuboids_.size() - 1)];
      UpdateOp u = CuboidUpdate(*b_, o_, &rng_, i, 0.8, 1.25, problem);
      op.req.function = u.op;
      op.req.args = std::move(u.args);
      op.obj = i;
      predicted = u.predicted;
    } else {
      uint32_t i = own_parts_[rng_.UniformInt(0, own_parts_.size() - 1)];
      size_t p = i - o_->n_cuboids;
      Value part = Value::Ref(b_->parts[p]);
      geomwl::TriangleMesh& m = o_->meshes[p];
      const Shadow::Row before = o_->shadow->Latest(i);
      double u = rng_.UniformDouble(0, 1);
      if (u < 0.4) {
        double f = rng_.UniformDouble(0.9, 1.1);
        op.req.function = b_->mesh.op_scale_mesh;
        op.req.args = {part, Value::Float(f)};
        for (auto& v : m.vertices) {
          v.x *= f;
          v.y *= f;
          v.z *= f;
        }
        predicted = Oracle::PartRow(m, o_->density[p]);
        if (!Near(predicted[0], before[0] * f * f) ||
            !Near(predicted[1], before[1] * f * f * f) ||
            !Near(predicted[3], before[3] * f)) {
          *problem =
              "scale_mesh(f) did not give area*f^2, volume*f^3, diagonal*f";
        }
      } else if (u < 0.7) {
        int64_t dseed = rng_.UniformInt(0, 1 << 30);
        op.req.function = b_->mesh.op_deform;
        op.req.args = {part, Value::Int(dseed), Value::Float(0.02)};
        geomwl::DeformMesh(&m, static_cast<uint64_t>(dseed), 0.02);
        predicted = Oracle::PartRow(m, o_->density[p]);
      } else {
        double d = rng_.UniformDouble(1, 9);
        op.req.function = b_->set_density;
        op.req.args = {part, Value::Float(d)};
        o_->density[p] = d;
        predicted = before;
        predicted[2] = before[1] * d;
      }
      op.obj = i;
    }
    o_->shadow->Issue(op.obj, predicted, seq);
    return op;
  }

  const ServeConfig& cfg_;
  Base* b_;
  Oracle* o_;
  Rng rng_;
  Zipf zipf_cuboids_;
  Zipf zipf_parts_;
  std::vector<uint32_t> own_cuboids_;
  std::vector<uint32_t> own_parts_;
  std::vector<size_t> rank_cuboid_;
  std::vector<size_t> rank_part_;
};

/// Checks one answer; `sent`/`answered` are the sequence numbers of the
/// request and its response. Returns "" when it holds.
std::string CheckAnswer(const Op& op, const server::RowSet& rows,
                        const Oracle& o, uint64_t sent, uint64_t answered) {
  switch (op.cls) {
    case kForward: {
      if (rows.size() != 1 || rows[0].size() != 1 || !rows[0][0].is_numeric()) {
        return "forward answer is not one number";
      }
      double x = *rows[0][0].AsDouble();
      if (!o.shadow->Observable(op.obj, op.col, x, sent, answered)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "forward column %d of object %u = %.17g, expected %.17g",
                      op.col, op.obj, x, o.shadow->Latest(op.obj)[op.col]);
        return buf;
      }
      return "";
    }
    case kBackward:
    case kGomql: {
      std::vector<uint32_t> idx;
      if (!RowsToIndices(rows, o.index_of, &idx)) {
        return "range answer holds a malformed row";
      }
      return o.shadow->CheckRange(idx, op.lo, op.hi, sent, answered);
    }
    default:
      return rows.size() == 1 && rows[0].size() == 1
                 ? ""
                 : "update answer has the wrong shape";
  }
}

// ------------------------------------------------------ the load generator

struct Conn {
  int fd = -1;
  bool inflight = false;
  Op op;
  uint64_t sent = 0;
  uint64_t req_id = 0;
  double t0 = 0;
  uint32_t span = 0;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
};

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Pushes the pending request bytes; false on a dead connection.
bool Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }
  return true;
}

struct PhaseResult {
  double seconds = 0;
  PhaseWork work;
  std::string problem;  // first mismatch, update failure or transport error
};

/// Drives one closed loop per generator against the server, checking every
/// answer. Client-side codec calls and whole requests are spans when the
/// tracer is on.
class LoadGen {
 public:
  LoadGen(Oracle* o, Accounting* acct, Tracer* tracer)
      : o_(o), acct_(acct), tracer_(tracer) {}

  void Add(std::unique_ptr<Generator> g) { gens_.push_back(std::move(g)); }

  PhaseResult Run(uint16_t port, double seconds, bool record) {
    PhaseResult res;
    std::vector<Conn> conns(gens_.size());
    for (Conn& c : conns) {
      c.fd = Connect(port);
      if (c.fd < 0) res.problem = std::string("connect: ") + std::strerror(errno);
    }
    uint64_t completed0 = acct_->completed();
    double t0 = NowUs();
    double deadline = t0 + seconds * 1e6;
    for (size_t i = 0; i < conns.size() && res.problem.empty(); ++i) {
      Send(conns[i], *gens_[i], &res);
    }
    std::vector<pollfd> pfds(conns.size());
    while (res.problem.empty()) {
      size_t active = 0;
      for (size_t i = 0; i < conns.size(); ++i) {
        Conn& c = conns[i];
        short ev = c.out_off < c.out.size() ? (POLLIN | POLLOUT) : POLLIN;
        pfds[i] = pollfd{c.inflight ? c.fd : -1, ev, 0};
        active += c.inflight ? 1 : 0;
      }
      if (active == 0) break;
      int r = ::poll(pfds.data(), pfds.size(), 1000);
      if (r < 0 && errno != EINTR) {
        res.problem = std::string("poll: ") + std::strerror(errno);
      }
      for (size_t i = 0; i < conns.size() && res.problem.empty(); ++i) {
        Conn& c = conns[i];
        if (!c.inflight || r <= 0 || pfds[i].revents == 0) continue;
        if ((pfds[i].revents & POLLOUT) != 0 && !Flush(c)) {
          res.problem = "send failed";
          break;
        }
        if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        if (!Receive(c, record, &res)) break;
        if (!c.inflight && NowUs() < deadline) Send(c, *gens_[i], &res);
      }
    }
    res.seconds = (NowUs() - t0) / 1e6;
    res.work.ops = static_cast<double>(acct_->completed() - completed0);
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    return res;
  }

 private:
  void Send(Conn& c, Generator& g, PhaseResult* res) {
    std::string problem;
    uint64_t seq = NextSeq();
    c.op = g.Next(seq, &problem);
    if (!problem.empty()) {
      acct_->Mismatch(c.op.cls);
      res->problem = problem;
      return;
    }
    c.sent = seq;
    c.req_id = ++request_id_;
    c.op.req.id = c.req_id;
    // One request in kTraceEvery is traced: enough samples for the codec
    // medians without the spans outgrowing the tracer.
    c.span = c.req_id % kTraceEvery == 0
                 ? tracer_->Begin("client.request", 0, c.req_id)
                 : 0;
    c.out.clear();
    c.out_off = 0;
    uint32_t enc = c.span != 0
                       ? tracer_->Begin("client.encode", c.span, c.req_id)
                       : 0;
    server::EncodeRequest(c.op.req, &c.out);
    tracer_->End(enc);
    c.inflight = true;
    inflight_sent_.insert(c.sent);
    c.t0 = NowUs();
    if (!Flush(c)) res->problem = "send failed";
  }

  /// Reads what is available; on a complete response checks it and
  /// clears `inflight`. False ends the phase.
  bool Receive(Conn& c, bool record, PhaseResult* res) {
    while (true) {
      size_t base = c.in.size();
      c.in.resize(base + 65536);
      ssize_t n = ::recv(c.fd, c.in.data() + base, 65536, 0);
      c.in.resize(base + static_cast<size_t>(std::max<ssize_t>(n, 0)));
      if (n > 0) continue;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      res->problem = "connection closed by the server";
      return false;
    }
    std::vector<uint8_t> payload;
    uint32_t dec = c.span != 0
                       ? tracer_->Begin("client.decode", c.span, c.req_id)
                       : 0;
    auto consumed = server::TryDecodeFrame(c.in.data(), c.in.size(), &payload);
    if (!consumed.ok()) {
      res->problem = "bad frame: " + consumed.status().ToString();
      return false;
    }
    if (*consumed == 0) return true;  // partial frame; the span stays open
    auto resp = server::DecodeResponse(payload);
    tracer_->End(dec);
    double us = NowUs() - c.t0;
    tracer_->End(c.span);
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<ptrdiff_t>(*consumed));
    uint64_t answered = NextSeq();
    c.inflight = false;
    inflight_sent_.erase(inflight_sent_.find(c.sent));
    if (!resp.ok() || resp->id != c.req_id) {
      res->problem = "undecodable or misrouted response";
      acct_->Mismatch(c.op.cls);
      return false;
    }
    if (resp->code != StatusCode::kOk) {
      if (resp->code == StatusCode::kOverloaded) {
        acct_->Shed(c.op.cls);
      } else {
        acct_->Error(c.op.cls);
      }
      if (c.op.cls == kUpdate) {
        // The update may or may not have applied: nothing after it can be
        // checked, so the run stops here.
        res->problem = "update failed: " + resp->message;
        return false;
      }
      return true;
    }
    std::string bad = CheckAnswer(c.op, resp->rows, *o_, c.sent, answered);
    if (!bad.empty()) {
      acct_->Mismatch(c.op.cls);
      res->problem = bad;
      return false;
    }
    if (c.op.cls == kUpdate) {
      o_->shadow->Complete(c.op.obj, answered);
      o_->shadow->Trim(c.op.obj, inflight_sent_.empty()
                                     ? answered
                                     : *inflight_sent_.begin());
      ++res->work.updates;
    } else if (c.op.cls == kBackward) {
      res->work.backward_rows += static_cast<double>(resp->rows.size());
      ++res->work.backward_answers;
    }
    acct_->Ok(c.op.cls, us, record);
    return true;
  }

  Oracle* o_;
  Accounting* acct_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Generator>> gens_;
  uint64_t request_id_ = 0;
  std::multiset<uint64_t> inflight_sent_;
};

// ---------------------------------------------------------- traced replay

/// Replays the mix in process through the Session entry points the server
/// calls, and GOMql through its stages, each call a span. Gives the
/// service time per class; end-to-end minus service is the server's share.
std::string Replay(Base& b, Oracle* o, const ServeConfig& cfg, uint64_t seed,
                   double seconds, Accounting* acct, Tracer* tracer,
                   Metrics* m) {
  workload::Environment& env = *b.env;
  workload::Session* session = env.MakeSession();
  Generator gen(cfg, &b, o, seed ^ 0xAE9147ULL, 0, 1);
  std::vector<double> gomql_rows;
  uint64_t ops = 0;
  double deadline = NowUs() + seconds * 1e6;
  std::string problem;
  while (NowUs() < deadline && ops < kMaxReplayOps && problem.empty()) {
    uint64_t sent = NextSeq();
    Op op = gen.Next(sent, &problem);
    if (!problem.empty()) break;
    ++ops;
    uint32_t root = tracer->Begin("replay.request", 0, ops);
    server::RowSet rows;
    Status st = Status::Ok();
    switch (op.cls) {
      case kForward: {
        ScopedSpan s(tracer, "workload.forward_query", root, ops);
        auto v = session->ForwardQuery(op.req.function, op.req.args);
        if (v.ok()) rows = {{*v}};
        st = v.status();
        break;
      }
      case kBackward: {
        ScopedSpan s(tracer, "workload.backward_query", root, ops);
        auto r = session->BackwardQuery(op.req.function, op.lo, op.hi, false,
                                        false);
        if (r.ok()) rows = std::move(*r);
        st = r.status();
        break;
      }
      case kGomql: {
        {
          ScopedSpan s(tracer, "workload.run_gomql", root, ops);
          auto r = session->RunGomql(op.req.text);
          if (r.ok()) rows = std::move(*r);
          st = r.status();
        }
        // The same statement once more, stage by stage.
        uint32_t pipe = tracer->Begin("gomql.pipeline", root, ops);
        Result<std::vector<gomql::Token>> toks = Status::Internal("unset");
        {
          ScopedSpan s(tracer, "gomql.tokenize", pipe, ops);
          toks = gomql::Tokenize(op.req.text);
        }
        gomql::Parser parser(&env.schema, &env.registry);
        Result<gomql::ParsedQuery> parsed = Status::Internal("unset");
        {
          ScopedSpan s(tracer, "gomql.parse", pipe, ops);
          parsed = parser.Parse(op.req.text);
        }
        gomql::Planner planner(&env.om, &env.interp, &env.mgr, &env.registry);
        Result<gomql::Plan> plan = Status::Internal("unset");
        if (parsed.ok()) {
          ScopedSpan s(tracer, "gomql.plan", pipe, ops);
          plan = planner.PlanRetrieve(*parsed);
        }
        Result<gomql::QueryRows> staged = Status::Internal("unset");
        if (plan.ok()) {
          ScopedSpan s(tracer, "gomql.execute", pipe, ops);
          staged = planner.Execute(*plan);
        }
        tracer->End(pipe);
        if (!toks.ok() || !staged.ok()) {
          problem = "staged GOMql failed";
        } else {
          std::vector<uint32_t> idx;
          if (!RowsToIndices(*staged, o->index_of, &idx)) {
            problem = "staged GOMql answer holds a malformed row";
          } else {
            problem = o->shadow->CheckRange(idx, op.lo, op.hi, sent, sent);
          }
          gomql_rows.push_back(static_cast<double>(staged->size()));
        }
        break;
      }
      default: {
        ScopedSpan s(tracer, "workload.run_operation", root, ops);
        auto v = session->RunOperation(op.req.function, op.req.args);
        if (v.ok()) rows = {{*v}};
        st = v.status();
      }
    }
    tracer->End(root);
    if (!st.ok()) {
      acct->Error(op.cls);
      problem = "replay " + std::string(ClassName(op.cls)) + ": " + st.ToString();
      break;
    }
    if (problem.empty()) problem = CheckAnswer(op, rows, *o, sent, sent);
    if (!problem.empty()) {
      acct->Mismatch(op.cls);
      break;
    }
    if (op.cls == kUpdate) {
      o->shadow->Complete(op.obj, sent);
      o->shadow->Trim(op.obj, sent);
    }
    acct->Ok(op.cls, 0, false);
  }
  const SessionStats& ss = session->stats();
  double reads = static_cast<double>(ss.forward_queries + ss.backward_queries);
  m->Set("workload.plain_evals_per_kread",
         reads > 0 ? 1000.0 * static_cast<double>(ss.plain_evaluations) / reads
                   : 0.0,
         "count");
  m->Set("workload.eval_nodes_per_op",
         ops > 0 ? static_cast<double>(ss.eval_nodes) / static_cast<double>(ops)
                 : 0.0,
         "count");
  double rows_total = 0;
  for (double r : gomql_rows) rows_total += r;
  m->Set("gomql.rows_per_query",
         gomql_rows.empty() ? 0.0 : rows_total / gomql_rows.size(), "count");
  env.ReleaseSession(session);
  return problem;
}

}  // namespace

int RunServed(const Options& opts) {
  ServeConfig cfg;
  cfg.write = opts.workload == "serve_write";
  if (opts.quick) {
    cfg.cuboids = 600;
    cfg.parts = 8;
    cfg.rings = 8;
    cfg.segments = 8;
    cfg.setups = 1;
    cfg.phases = 2;
    cfg.warmup_s = 0.2;
    cfg.probes = 200;
  }
  HostProbe host0 = HostProbe::Take();
  Metrics m;
  Accounting acct;
  Tracer tracer(false);

  // Set-up, several times: setup_s is their median, and the last one is
  // used.
  std::vector<double> setup_times;
  std::unique_ptr<Rig> rig;
  int setups = opts.trace ? 1 : cfg.setups;
  for (int k = 0; k < setups; ++k) {
    if (rig != nullptr) rig->server->Stop();
    rig.reset();
    double t0 = NowUs();
    auto built = BuildRig(cfg, opts.seed);
    setup_times.push_back((NowUs() - t0) / 1e6);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    rig = std::move(*built);
  }
  Base& b = rig->base;
  Oracle oracle;
  Status st = BuildOracle(b, &oracle);
  std::string problem = st.ok() ? CheckStoredRows(b, oracle)
                                : "oracle read: " + st.ToString();

  LoadGen load(&oracle, &acct, &tracer);
  for (size_t c = 0; c < kConnections; ++c) {
    load.Add(std::make_unique<Generator>(cfg, &b, &oracle, opts.seed, c,
                                         kConnections));
  }
  auto phase = [&](double seconds, bool record) {
    PhaseResult r = load.Run(rig->server->port(), seconds, record);
    if (problem.empty()) problem = r.problem;
    return r;
  };
  if (problem.empty()) phase(cfg.warmup_s, false);

  if (!opts.trace) {
    // The timed phase runs in segments, each against a freshly started
    // server (new reactor and worker threads, new connections). A served
    // closed loop hands every request across four threads, so while the
    // host's hypervisor takes CPU time from this machine (its steal share)
    // the loop loses far more than that share: at 12% steal a segment runs
    // at about half its rate. Each figure is therefore the median over the
    // quarter of the segments with the lowest machine steal share; a
    // stretch of steal over less than three quarters of the run does not
    // set it. Between segments, with no server thread running, every
    // stored result is checked against the oracle.
    std::vector<double> rates, steal;
    for (int s = 0; s < cfg.phases && problem.empty(); ++s) {
      if (s > 0) {
        rig->server->Stop();
        problem = CheckStoredRows(b, oracle);
        if (!problem.empty()) break;
        Status started = StartServer(rig.get());
        if (!started.ok()) problem = "server restart: " + started.ToString();
      }
      acct.NewSegment();
      CpuTicks t0 = ReadCpuTicks();
      PhaseResult seg = phase(static_cast<double>(opts.seconds) / cfg.phases,
                              true);
      CpuTicks t1 = ReadCpuTicks();
      rates.push_back(seg.work.ops / seg.seconds);
      steal.push_back(t1.total > t0.total
                          ? static_cast<double>(t1.steal - t0.steal) /
                                static_cast<double>(t1.total - t0.total)
                          : 0.0);
      std::printf("# segment %d: %.1f ops/s, machine steal share %.4f\n", s,
                  rates.back(), steal.back());
    }
    std::vector<size_t> order(rates.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t x, size_t y) { return steal[x] < steal[y]; });
    std::vector<bool> use(rates.size(), false);
    std::vector<double> kept_rates, kept_steal;
    size_t keep = std::min(order.size(), std::max<size_t>(order.size() / 4, 1));
    for (size_t k = 0; k < keep; ++k) {
      use[order[k]] = true;
      kept_rates.push_back(rates[order[k]]);
      kept_steal.push_back(steal[order[k]]);
    }
    m.Set("throughput_ops_s", Median(kept_rates), "1/s");
    m.Set("host.kept_segment_steal_share", Median(kept_steal), "ratio");
    rig->server->Stop();
    m.Set("setup_s", Median(setup_times), "s");
    acct.ReportLatency(&m, use);
  } else {
    // A third of the time served untraced, a third traced (their
    // throughput ratio is the tracing overhead), a third replayed in
    // process. The traced third runs on a fresh server, so the layer
    // counters are read while no server thread runs.
    double third = opts.seconds / 3.0;
    PhaseResult plain = phase(third, false);
    rig->server->Stop();
    Counters before = Counters::Read(*b.env);
    tracer.set_enabled(true);
    Status started = StartServer(rig.get());
    if (!started.ok() && problem.empty()) problem = started.ToString();
    PhaseResult traced;
    if (problem.empty()) traced = phase(third, true);
    server::Server::StatsSnapshot ss = rig->server->stats();
    rig->server->Stop();
    Counters after = Counters::Read(*b.env);
    ReportCounters(before, after, traced.work, &m);
    double plain_rate = plain.work.ops / std::max(plain.seconds, 1e-9);
    double traced_rate = traced.work.ops / std::max(traced.seconds, 1e-9);
    m.Set("trace.overhead_ratio", traced_rate > 0 ? plain_rate / traced_rate : 0,
          "ratio");
    m.Set("server.wire_encode_ns", tracer.MedianUs("client.encode") * 1e3, "ns");
    m.Set("server.wire_decode_ns", tracer.MedianUs("client.decode") * 1e3, "ns");
    m.Set("server.peak_queued", static_cast<double>(ss.admission.peak_queued),
          "count");
    m.Set("server.requests_ok", static_cast<double>(ss.requests_ok), "count");
    m.Set("server.requests_error", static_cast<double>(ss.requests_error),
          "count");
    m.Set("server.shed",
          static_cast<double>(ss.admission.shed_queue_full +
                              ss.admission.shed_conn_cap),
          "count");
    Metrics e2e;
    acct.ReportLatency(&e2e);

    if (problem.empty()) {
      problem = Replay(b, &oracle, cfg, opts.seed, third, &acct, &tracer, &m);
    }
    const char* service[kNumClasses] = {
        "workload.forward_query", "workload.backward_query",
        "workload.run_operation", "workload.run_gomql"};
    for (int c = 0; c < kNumClasses; ++c) {
      double svc = tracer.MedianUs(service[c]);
      std::string name = std::string(service[c]) + "_us";
      m.Set(name, svc, "us");
      std::string p50 = std::string(ClassName(c)) + "_p50_us";
      m.Set("server.overhead_" + std::string(ClassName(c)) + "_us",
            e2e.Has(p50) && svc > 0 ? e2e.Get(p50) - svc : 0.0, "us");
    }
    m.Set("gomql.tokenize_us", tracer.MedianUs("gomql.tokenize"), "us");
    m.Set("gomql.parse_us", tracer.MedianUs("gomql.parse"), "us");
    m.Set("gomql.plan_us", tracer.MedianUs("gomql.plan"), "us");
    m.Set("gomql.execute_us", tracer.MedianUs("gomql.execute"), "us");
    if (problem.empty()) {
      problem = OwnerProbes(b, oracle, opts.seed, cfg.probes, &tracer, &m);
    }
    WriteSpans(opts, tracer, &m);
  }
  if (problem.empty()) problem = FinalCheck(b, oracle);
  ReportHealth(host0, &m);
  PrintResult(opts, acct, m, problem);
  return problem.empty() ? 0 : 1;
}

}  // namespace perfbench
