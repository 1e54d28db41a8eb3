// Known-answer pins and a seeded mutation fuzz for every binary wire
// decoder.
//
// The pins hash each encoder's output for one fixed value with
// frame_checksum, so a codec change that moves a single byte fails
// here. The fuzz starts from those same valid encodings, flips bits,
// truncates, and inflates u64 lanes toward 2^64; every mutant must
// either decode or fail with a typed ExecError — never crash, never
// throw anything else, and never allocate more than a small multiple
// of its own size (a forged length or count must fail its bounds check
// before it drives an allocation).
//
// The graph readers (the .mgb instance decoder and the text edge-list
// reader) and the plain-text set-system reader are held to the same
// rule: mutants of a valid input either read as a valid instance or
// throw ParseError, within the same allocation bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "mrlr/core/params.hpp"
#include "mrlr/exec/executor.hpp"
#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/exec/shard_worker.hpp"
#include "mrlr/graph/graph.hpp"
#include "mrlr/graph/io.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/serve/protocol.hpp"
#include "mrlr/setcover/io.hpp"
#include "mrlr/setcover/set_system.hpp"
#include "mrlr/util/mix64.hpp"
#include "mrlr/util/rng.hpp"

// ------------------------------------------------- allocation bound --

namespace {
/// Largest single allocation allowed while a mutant is decoded; larger
/// requests are refused with bad_alloc, which the fuzz loop reports.
std::size_t g_alloc_limit = std::numeric_limits<std::size_t>::max();
std::size_t g_alloc_refused = 0;
}  // namespace

// Replaced as a complete set, so every allocation and release pairs
// through malloc/free (sanitizer builds check that pairing). The
// deletes stay out of line: inlined into a caller, GCC pairs their
// free() with the caller's operator new and warns.
void* operator new(std::size_t n) {
  if (n > g_alloc_limit) {
    g_alloc_refused = n;
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mrlr {
namespace {

using Bytes = std::vector<std::byte>;

void put_u64(Bytes& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

// --------------------------------------------------- fixed values --

jobs::JobSpec graph_spec() {
  core::MrParams p;
  p.mu = 0.25;
  p.c = 1.5;
  p.seed = 42;
  p.num_threads = 2;
  p.num_shards = 3;
  const graph::Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}},
                       {1.0, 2.5, 3.0, 0.5, 4.0});
  jobs::JobSpec spec = jobs::graph_job("matching", g, p);
  spec.extras["b"] = {2, 3, 1, 2, 2};
  spec.extras["eps"] = {core::pack_double(0.125)};
  return spec;
}

jobs::JobSpec set_system_spec() {
  core::MrParams p;
  p.seed = 7;
  p.enforce_space = false;
  const setcover::SetSystem sys(6, {{0, 1, 2}, {2, 3}, {3, 4, 5}, {1, 5}},
                                {1.0, 2.0, 0.5, 3.25});
  return jobs::set_system_job("set-cover-f", sys, p);
}

jobs::JobResult sample_result() {
  jobs::JobResult r;
  r.algorithm = "matching";
  r.solution_hash = 0x88ED824E0971557Bull;
  r.solution_size = 143;
  r.valid = true;
  r.outcome.iterations = 2;
  r.outcome.rounds = 16;
  r.outcome.max_machine_words = 6314;
  r.outcome.max_central_inbox = 5196;
  r.outcome.total_communication = 78026;
  r.stats.push_back({"weight", core::pack_double(12042.6),
                     jobs::JobStat::Kind::kPackedDouble});
  r.stats.push_back({"stack", 115, jobs::JobStat::Kind::kCount});
  return r;
}

serve::AdmissionReply sample_admission() {
  serve::AdmissionReply a;
  a.accepted = false;
  a.reason = serve::RejectReason::kOverBudget;
  a.message = "projected 9000 words";
  a.projected_words = 9000;
  a.budget_words = 10000;
  a.words_in_use = 8000;
  return a;
}

serve::ResultReply sample_result_reply() {
  serve::ResultReply r;
  r.job_id = 7;
  r.ok = true;
  r.queue_wait_ns = 123;
  r.run_ns = 456;
  r.result = jobs::encode_job_result(sample_result());
  return r;
}

serve::StatsReply sample_stats() {
  serve::StatsReply s;
  s.jobs_submitted = 5;
  s.jobs_accepted = 4;
  s.jobs_rejected = 1;
  s.jobs_completed = 3;
  s.jobs_failed = 1;
  s.jobs_running = 1;
  s.words_budget = 1 << 20;
  s.words_in_use = 99;
  s.uptime_ms = 1234;
  return s;
}

serve::HealthReply sample_health() {
  serve::HealthReply h;
  h.shutting_down = true;
  h.jobs_running = 2;
  h.uptime_ms = 777;
  return h;
}

exec::JobBootstrap sample_bootstrap(std::uint64_t threads) {
  exec::JobBootstrap b;
  b.first = 4;
  b.last = 7;
  b.machines = 10;
  b.shard_ranges = {{0, 4}, {4, 7}, {7, 10}};
  b.flags = exec::kBootstrapCarriesSpec | exec::kBootstrapTelemetry;
  b.nonce = 0xC0FFEE;
  b.threads = threads;
  b.round_labels = {"sample", "prune", "gather"};
  b.job_spec = jobs::encode_job_spec(set_system_spec());
  return b;
}

/// One telemetry window: two spans and two counter deltas on shard 1.
Bytes telemetry_window() {
  obs::Telemetry& t = obs::Telemetry::instance();
  t.enable();
  const obs::Telemetry::Mark mark = t.mark();
  t.set_shard(1);
  t.record_span(obs::Phase::kCallback, 100, 250, 3, "machines [4, 7)");
  t.record_span(obs::Phase::kShardSerialize, 250, 260, 3);
  t.add_counter("exec.frames_sent", 2);
  t.add_counter("engine.messages", 9);
  Bytes out = t.serialize_since(mark);
  t.disable();
  t.clear();
  return out;
}

// ------------------------------------------------ engine data plane --

using Word = mrc::Word;

/// Hands the engine's job plane to the test at the first round.
class GrabPlaneExecutor final : public exec::Executor {
 public:
  struct Grabbed {};

  void run_machines(std::uint64_t first, std::uint64_t last,
                    const MachineFn& fn) override {
    for (std::uint64_t m = first; m < last; ++m) fn(m);
  }
  void start_job(std::uint64_t, exec::ShardJobPlane* p) override {
    plane = p;
    throw Grabbed{};
  }
  std::string_view name() const override { return "grab-plane"; }
  unsigned num_threads() const override { return 1; }

  exec::ShardJobPlane* plane = nullptr;
};

/// A 3-machine engine whose one round ("seed") has machine 2 send
/// {41, 42} to machine 0 and {43} to itself and keep 5 resident words,
/// split into shard 0 = [0, 2) and shard 1 = {2}, serving as `own`.
struct PlaneUnderTest {
  explicit PlaneUnderTest(std::uint32_t own) {
    auto grab = std::make_shared<GrabPlaneExecutor>();
    mrc::Topology t;
    t.num_machines = 3;
    t.words_per_machine = 1 << 20;
    t.fanout = 2;
    engine = std::make_unique<mrc::Engine>(t, grab);
    engine->define_round("seed",
                         [](mrc::MachineContext& ctx, std::span<const Word>) {
                           if (ctx.id() != 2) return;
                           ctx.send(0, {41, 42});
                           ctx.send(2, {43});
                           ctx.charge_resident(5);
                         });
    try {
      engine->invoke_round(0);
    } catch (const GrabPlaneExecutor::Grabbed&) {
    }
    plane = grab->plane;
    const std::vector<std::uint64_t> bounds{0, 2, 3};
    plane->set_shards(bounds, own);
  }

  std::unique_ptr<mrc::Engine> engine;
  exec::ShardJobPlane* plane = nullptr;
};

void put_record(Bytes& out, std::uint32_t from, std::uint32_t to,
                std::initializer_list<Word> words) {
  for (const std::uint32_t v :
       {from, to, static_cast<std::uint32_t>(words.size())}) {
    const std::size_t at = out.size();
    out.resize(at + 4);
    std::memcpy(out.data() + at, &v, 4);
  }
  for (const Word w : words) put_u64(out, w);
}

/// Shard 1's own bucket of round 1: machine 2's record to itself.
Bytes own_bucket() {
  Bytes b;
  put_record(b, 2, 2, {43});
  return b;
}

/// A worker's held buckets: round 1's own bucket, nothing else.
std::span<const std::byte> held_bucket(std::uint32_t sender,
                                       std::uint64_t generation) {
  static const Bytes bucket = own_bucket();
  if (sender != 1 || generation != 1) {
    throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                               "no such bucket");
  }
  return bucket;
}

/// Shard 1's round input: keep round 2 on, one segment of shard 0's
/// records followed by round 1's buckets; machine 2 holds three records
/// of two words.
Bytes round_input() {
  Bytes in;
  for (const std::uint64_t v : {2, 0, 1, 12 + 20, 1, 3, 2}) put_u64(in, v);
  put_record(in, 0, 2, {});
  put_record(in, 1, 2, {31});
  return in;
}

/// Shard 1's kShardData payload after it ran "seed".
Bytes shard_data() {
  PlaneUnderTest worker(1);
  worker.plane->apply_round_input(round_input(), held_bucket);
  worker.plane->run_registered(0, 2, {});
  std::vector<Bytes> parts;
  worker.plane->serialize_machines(parts);
  return parts[0];
}

// ---------------------------------------------------------- frames --

/// In-memory channel over a fixed byte string.
class MemChannel final : public exec::ShardChannel {
 public:
  explicit MemChannel(Bytes bytes = {}) : buf_(std::move(bytes)) {}
  void write_all(const std::byte* data, std::size_t n) override {
    buf_.insert(buf_.end(), data, data + n);
  }
  std::size_t read_some(std::byte* data, std::size_t n) override {
    const std::size_t take = std::min(n, buf_.size() - pos_);
    if (take > 0) std::memcpy(data, buf_.data() + pos_, take);
    pos_ += take;
    return take;
  }
  Bytes& bytes() { return buf_; }

 private:
  Bytes buf_;
  std::size_t pos_ = 0;
};

/// A status frame (the smallest frame kind with a payload).
Bytes status_frame() {
  MemChannel ch;
  Bytes payload;
  put_u64(payload, 1);
  put_u64(payload, 2);
  const std::string what = "machine 2 threw";
  payload.insert(payload.end(),
                 reinterpret_cast<const std::byte*>(what.data()),
                 reinterpret_cast<const std::byte*>(what.data()) +
                     what.size());
  exec::write_frame(ch, exec::FrameKind::kShardStatus, 1, 3, payload);
  return ch.bytes();
}

// ------------------------------------------------------------- pins --

/// frame_checksum of each encoding above: a pin that moves means a byte
/// on the wire moved.
TEST(WirePins, EncodersProduceKnownBytes) {
  const auto pin = [](const Bytes& bytes) {
    return exec::frame_checksum(bytes);
  };
  EXPECT_EQ(pin(jobs::encode_job_spec(graph_spec())), 0xB268AD41B879DD88ull);
  EXPECT_EQ(pin(jobs::encode_job_spec(set_system_spec())),
            0x20BFDAC5E5CB9081ull);
  EXPECT_EQ(pin(jobs::encode_job_result(sample_result())),
            0xD3656B95497B352Aull);
  EXPECT_EQ(pin(serve::encode_admission_reply(sample_admission())),
            0x997F1FAFCCC62933ull);
  EXPECT_EQ(pin(serve::encode_result_reply(sample_result_reply())),
            0x08E6D95AF391CC62ull);
  EXPECT_EQ(pin(serve::encode_stats_reply(sample_stats())),
            0xEA05326BBD0261DCull);
  EXPECT_EQ(pin(serve::encode_health_reply(sample_health())),
            0xA017A3C6EC192FDCull);
  EXPECT_EQ(pin(exec::encode_bootstrap(sample_bootstrap(1))),
            0xB9ABA0CFBCA03BFDull);
  EXPECT_EQ(pin(exec::encode_bootstrap(sample_bootstrap(4))),
            0xDF248A044F89C3F2ull);
  EXPECT_EQ(pin(telemetry_window()), 0xBB138DB19B992706ull);
  // Frame version 5: kShardData keeps only the shard-0 bucket, and
  // every frame header carries the new version.
  EXPECT_EQ(pin(shard_data()), 0x5BA655FF044DC07Dull);
  EXPECT_EQ(pin(status_frame()), 0xB3A4FC5C2EBC4E5Dull);
}

// ------------------------------------------------------------- fuzz --

constexpr int kIterations = 1500;

/// A decoded value may hold a few times the bytes that back it (a
/// 32-byte std::string per 8-byte length lane, a frame payload buffer
/// grown 8x past the bytes received), never more.
constexpr std::size_t kAllocFactor = 8;
constexpr std::size_t kAllocSlack = std::size_t{64} << 10;

/// One random mutation of `seed`: 1-4 bit flips, a truncation, or one
/// u64 lane overwritten with a value near 2^64 or just past the
/// payload's end.
Bytes mutate(const Bytes& seed, Rng& rng) {
  static constexpr std::uint64_t kInflated[] = {
      ~0ull, ~0ull - 7, 1ull << 63, 1ull << 40, 1ull << 32, 0xFFFFFFFFull};
  Bytes out = seed;
  switch (rng.uniform(3)) {
    case 0:
      for (std::uint64_t flips = 1 + rng.uniform(4); flips > 0; --flips) {
        out[rng.uniform(out.size())] ^=
            static_cast<std::byte>(1u << rng.uniform(8));
      }
      break;
    case 1:
      out.resize(rng.uniform(out.size()));
      break;
    default: {
      const std::uint64_t v = rng.bernoulli(0.5)
                                  ? kInflated[rng.uniform(std::size(kInflated))]
                                  : seed.size() + rng.uniform(64);
      // Most formats keep their lanes 8-aligned; strings shift the rest.
      std::size_t at = rng.uniform(out.size() - 7);
      if (rng.bernoulli(0.5)) at &= ~std::size_t{7};
      std::memcpy(out.data() + at, &v, 8);
    }
  }
  return out;
}

using Decode = std::function<void(std::span<const std::byte>)>;
using Mutate = Bytes (*)(const Bytes&, Rng&);

/// Decodes kIterations mutants of `seed` (after `setup`, which runs
/// outside the allocation bound): each must return or throw
/// `TypedError`.
template <class TypedError = exec::ExecError>
void fuzz(const char* name, const Bytes& seed, std::uint64_t stream,
          const Decode& decode, const std::function<void()>& setup = {},
          Mutate mutant = mutate) {
  if (setup) setup();
  ASSERT_NO_THROW(decode(seed)) << name << ": the seed must decode";
  Rng rng(0x6D726C722E777A66ull + stream);
  int decoded = 0;
  for (int i = 0; i < kIterations; ++i) {
    const Bytes in = mutant(seed, rng);
    if (setup) setup();
    std::string failure;
    g_alloc_limit = kAllocFactor * in.size() + kAllocSlack;
    try {
      decode(in);
      ++decoded;
    } catch (const TypedError&) {
    } catch (const std::bad_alloc&) {
      failure = "an allocation of " + std::to_string(g_alloc_refused) +
                " bytes";
    } catch (const std::exception& e) {
      failure = std::string("an untyped error: ") + e.what();
    }
    g_alloc_limit = std::numeric_limits<std::size_t>::max();
    if (!failure.empty()) {
      ADD_FAILURE() << name << ": mutant " << i << " (" << in.size()
                    << " bytes) caused " << failure;
      return;
    }
  }
  // Bit flips in fields no check covers (a nonce, a stat value) decode;
  // a fuzz that never gets past the first check would prove nothing.
  EXPECT_GT(decoded, 0) << name;
}

/// A decode that also re-encodes what it accepted and checks the
/// decoder takes that encoding back unchanged.
template <class DecodeFn, class EncodeFn>
Decode round_trip(DecodeFn dec, EncodeFn enc) {
  return [=](std::span<const std::byte> in) {
    const Bytes once = enc(dec(in));
    EXPECT_EQ(enc(dec(once)), once);
  };
}

TEST(WireFuzz, JobSpecAndInstance) {
  fuzz("job spec (graph)", jobs::encode_job_spec(graph_spec()), 1,
       round_trip(jobs::decode_job_spec, jobs::encode_job_spec));
  fuzz("job spec (set system)", jobs::encode_job_spec(set_system_spec()), 2,
       round_trip(jobs::decode_job_spec, jobs::encode_job_spec));
  // SetSystem sorts and deduplicates each set, so the instance bytes
  // are canonical only after one round trip.
  fuzz("set system instance", set_system_spec().instance, 3,
       round_trip(
           [](std::span<const std::byte> in) {
             jobs::JobSpec spec;
             spec.kind = jobs::JobSpec::InstanceKind::kSetSystem;
             spec.instance.assign(in.begin(), in.end());
             return jobs::decode_set_system_instance(spec);
           },
           [](const setcover::SetSystem& sys) {
             return jobs::set_system_job("", sys, {}).instance;
           }));
}

// ------------------------------------------------- graph instance --

template <class T>
T load_at(const Bytes& b, std::size_t at) {
  T v{};
  std::memcpy(&v, b.data() + at, sizeof(T));
  return v;
}

/// Rewrites the checksum trailer of a .mgb stream (graph/io_binary.hpp)
/// to match its content, taking m from the byte count, so a mutant
/// gets past the checksum to whatever it forged.
void seal_mgb(Bytes& mgb) {
  std::uint64_t h = 0x6D726C722E6D6762ull;
  const auto absorb = [&](std::uint64_t x) { h = mix64(h ^ x); };
  absorb(load_at<std::uint64_t>(mgb, 8));
  absorb(load_at<std::uint64_t>(mgb, 16));
  const std::uint32_t flags = load_at<std::uint32_t>(mgb, 24);
  absorb(flags);
  const std::size_t m = (mgb.size() - 40) / ((flags & 1) != 0 ? 16 : 8);
  for (std::size_t i = 0; i < m; ++i) {
    absorb((std::uint64_t{load_at<std::uint32_t>(mgb, 32 + 8 * i)} << 32) |
           load_at<std::uint32_t>(mgb, 36 + 8 * i));
  }
  for (std::size_t at = 32 + 8 * m; at + 8 < mgb.size(); at += 8) {
    absorb(load_at<std::uint64_t>(mgb, at));
  }
  std::memcpy(mgb.data() + mgb.size() - 8, &h, 8);
}

/// As mutate, but half the mutants that keep their size are resealed:
/// otherwise nearly every mutant stops at the checksum, and a forged
/// field the checksum covers (n, say) never reaches the CSR build.
Bytes mutate_sealed(const Bytes& seed, Rng& rng) {
  Bytes out = mutate(seed, rng);
  if (out.size() == seed.size() && rng.bernoulli(0.5)) seal_mgb(out);
  return out;
}

graph::Graph decode_graph(std::span<const std::byte> in) {
  jobs::JobSpec spec;
  spec.instance.assign(in.begin(), in.end());
  return jobs::decode_graph_instance(spec);
}

Bytes encode_graph(const graph::Graph& g) {
  return jobs::graph_job("", g, {}).instance;
}

TEST(WireFuzz, GraphInstance) {
  const Bytes seed = graph_spec().instance;
  Bytes sealed = seed;
  seal_mgb(sealed);
  ASSERT_EQ(sealed, seed) << "seal_mgb must reproduce the encoder's trailer";
  fuzz<graph::ParseError>("graph instance", seed, 16,
                          round_trip(decode_graph, encode_graph), {},
                          mutate_sealed);
}

/// Runs `read` on `in` under the allocation bound: it must throw
/// ParseError. Returns what went wrong instead, or "".
std::string expect_refused(const Bytes& in,
                           const std::function<void()>& read) {
  std::string failure;
  g_alloc_limit = kAllocFactor * in.size() + kAllocSlack;
  try {
    read();
    failure = "it was accepted";
  } catch (const graph::ParseError&) {
  } catch (const std::bad_alloc&) {
    failure = "an allocation of " + std::to_string(g_alloc_refused) +
              " bytes";
  }
  g_alloc_limit = std::numeric_limits<std::size_t>::max();
  return failure;
}

/// A 40-byte .mgb (n = 2^32, m = 0, valid checksum) must not size a
/// 2^32-vertex index, neither as a job-spec instance nor as a file.
TEST(WireFuzz, GraphVertexCountIsBounded) {
  Bytes mgb;
  for (const std::uint64_t lane :
       {std::uint64_t{0x000000013142474Dull}, std::uint64_t{1} << 32,
        std::uint64_t{0}, std::uint64_t{0}, std::uint64_t{0}}) {
    put_u64(mgb, lane);
  }
  seal_mgb(mgb);
  ASSERT_EQ(mgb.size(), 40u);
  EXPECT_EQ(expect_refused(mgb, [&] { (void)decode_graph(mgb); }), "");

  const std::string path =
      (std::filesystem::temp_directory_path() / "mrlr_fuzz_big_n.mgb")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(mgb.data()),
              static_cast<std::streamsize>(mgb.size()));
  }
  EXPECT_EQ(expect_refused(mgb, [&] { (void)graph::read_graph_file(path); }),
            "");
  std::filesystem::remove(path);
}

TEST(WireFuzz, JobResult) {
  fuzz("job result", jobs::encode_job_result(sample_result()), 4,
       round_trip(jobs::decode_job_result, jobs::encode_job_result));
}

TEST(WireFuzz, ServeReplies) {
  fuzz("admission reply", serve::encode_admission_reply(sample_admission()),
       5, round_trip(serve::decode_admission_reply,
                     serve::encode_admission_reply));
  fuzz("result reply", serve::encode_result_reply(sample_result_reply()), 6,
       round_trip(serve::decode_result_reply, serve::encode_result_reply));
  fuzz("stats reply", serve::encode_stats_reply(sample_stats()), 7,
       round_trip(serve::decode_stats_reply, serve::encode_stats_reply));
  fuzz("health reply", serve::encode_health_reply(sample_health()), 8,
       round_trip(serve::decode_health_reply, serve::encode_health_reply));
}

TEST(WireFuzz, JobBootstrap) {
  fuzz("bootstrap", exec::encode_bootstrap(sample_bootstrap(1)), 9,
       round_trip(exec::decode_bootstrap, exec::encode_bootstrap));
  fuzz("bootstrap (threads)", exec::encode_bootstrap(sample_bootstrap(4)),
       10, round_trip(exec::decode_bootstrap, exec::encode_bootstrap));
}

TEST(WireFuzz, TelemetryWindow) {
  obs::Telemetry& t = obs::Telemetry::instance();
  fuzz("telemetry window", telemetry_window(), 11,
       [&](std::span<const std::byte> in) {
         t.merge_remote(in, 1);
         t.clear();
       });
  t.clear();
}

TEST(WireFuzz, Frame) {
  fuzz("frame", status_frame(), 12, [](std::span<const std::byte> in) {
    MemChannel ch(Bytes(in.begin(), in.end()));
    exec::Frame f;
    exec::read_frame(ch, f);
    MemChannel again;
    exec::write_frame(again, f.kind, f.shard, f.sequence, f.payload);
    EXPECT_EQ(again.bytes(),
              Bytes(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(
                                                 again.bytes().size())));
  });
}

TEST(WireFuzz, EngineDataPlane) {
  std::unique_ptr<PlaneUnderTest> plane;
  fuzz("round input", round_input(), 13,
       [&](std::span<const std::byte> in) {
         std::vector<std::uint64_t> generations;
         std::uint64_t keep_from = 0;
         plane->plane->peer_generations(in, generations, keep_from);
         plane->plane->apply_round_input(in, held_bucket);
       },
       [&] { plane = std::make_unique<PlaneUnderTest>(1); });
  fuzz("shard data", shard_data(), 14,
       [&](std::span<const std::byte> in) {
         plane->plane->apply_machines(1, in);
       },
       [&] { plane = std::make_unique<PlaneUnderTest>(0); });
}

// ------------------------------------------------------- text fuzz --

setcover::SetSystem read_text(std::span<const std::byte> in) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(in.data()), in.size()));
  return setcover::read_set_system(is);
}

Bytes write_text(const setcover::SetSystem& sys) {
  std::ostringstream os;
  setcover::write_set_system(sys, os);
  const std::string text = os.str();
  return {reinterpret_cast<const std::byte*>(text.data()),
          reinterpret_cast<const std::byte*>(text.data() + text.size())};
}

/// A valid set-system text: weighted, with a comment and an empty set.
Bytes set_system_text() {
  const std::string text =
      "5 8 weighted\n1.5 3 0 1 2\n# comment\n2 2 4 3\n0.25 0\n"
      "3 3 5 6 7\n7.125 4 1 3 5 7\n";
  return {reinterpret_cast<const std::byte*>(text.data()),
          reinterpret_cast<const std::byte*>(text.data() + text.size())};
}

/// One random mutation of a text seed: 1-4 bytes replaced (by a byte
/// the grammar uses, or any byte), a truncation, 1-12 grammar bytes
/// appended after the last row, or 1-20 digits spliced into a count
/// field: one of the header's two counts (sets and universe, or
/// vertices and edges), or a row's second number (a set's size, an
/// edge's second endpoint).
Bytes mutate_text(const Bytes& seed, Rng& rng) {
  static constexpr char kGrammar[] = "0123456789 \t\n\r#+-.eEinfa";
  Bytes out = seed;
  switch (rng.uniform(4)) {
    case 0:
      for (std::uint64_t n = 1 + rng.uniform(4); n > 0; --n) {
        out[rng.uniform(out.size())] = static_cast<std::byte>(
            rng.bernoulli(0.8) ? kGrammar[rng.uniform(sizeof(kGrammar) - 1)]
                               : static_cast<char>(rng.uniform(256)));
      }
      break;
    case 1:
      out.resize(rng.uniform(out.size()));
      break;
    case 2:
      for (std::uint64_t n = 1 + rng.uniform(12); n > 0; --n) {
        out.push_back(
            static_cast<std::byte>(kGrammar[rng.uniform(sizeof(kGrammar) - 1)]));
      }
      break;
    default: {
      // Count fields: the header's first two numbers, and the second
      // number (after the weight) of every row.
      std::vector<std::size_t> counts;
      std::size_t line = 0, field = 0;
      for (std::size_t i = 0; i < out.size(); ++i) {
        const char c = static_cast<char>(out[i]);
        const char prev = i == 0 ? '\n' : static_cast<char>(out[i - 1]);
        if (c == '\n') {
          ++line;
          field = 0;
        } else if (c != ' ' && (prev == ' ' || prev == '\n')) {
          if (line == 0 ? field < 2 : field == 1) counts.push_back(i);
          ++field;
        }
      }
      const std::size_t at =
          counts[rng.bernoulli(0.5) ? rng.uniform(2)
                                    : rng.uniform(counts.size())];
      Bytes digits(1 + rng.uniform(20));
      for (std::byte& d : digits) {
        d = static_cast<std::byte>('0' + rng.uniform(10));
      }
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                 digits.begin(), digits.end());
    }
  }
  return out;
}

Bytes text_bytes(const std::string& text) {
  return {reinterpret_cast<const std::byte*>(text.data()),
          reinterpret_cast<const std::byte*>(text.data() + text.size())};
}

/// Trailing-content mutants: `seed` (whose last row ends its line) with
/// a tail appended. A tail holding anything but blank and comment lines
/// is content past the header's declared rows and must be refused,
/// naming its line; the others read as the seed does.
void expect_tails(const Bytes& seed,
                  const std::function<void(std::span<const std::byte>)>& read) {
  for (const std::string tail :
       {"this is junk\n", "this is junk", "0 1\n", "1 0 1.5\n", " 7",
        "\n\n# comment\n1 2\n", "1.5 1 0\n", "\t+\n"}) {
    Bytes in = seed;
    const Bytes more = text_bytes(tail);
    in.insert(in.end(), more.begin(), more.end());
    try {
      read(in);
      ADD_FAILURE() << "accepted the trailing \"" << tail << "\"";
    } catch (const graph::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("content after the header's"),
                std::string::npos)
          << e.what();
    }
  }
  for (const std::string tail : {"\n", "# trailing comment\n", " \t\n\n", "#"}) {
    Bytes in = seed;
    const Bytes more = text_bytes(tail);
    in.insert(in.end(), more.begin(), more.end());
    EXPECT_NO_THROW(read(in)) << "\"" << tail << "\"";
  }
}

/// Every mutant must throw ParseError or read as a valid system, which
/// writes out and reads back to the same text.
TEST(TextFuzz, SetSystem) {
  fuzz<graph::ParseError>("set system text", set_system_text(), 15,
                          round_trip(read_text, write_text), {},
                          mutate_text);
  expect_tails(set_system_text(),
               [](std::span<const std::byte> in) { (void)read_text(in); });
}

/// A header's universe must not size the element index past the ids
/// the file carries, nor past 32-bit ids (which it would truncate).
TEST(TextFuzz, SetSystemUniverseIsBounded) {
  for (const std::string text :
       {"0 4294967297\n", "1 200000000\n1 0\n",
        "1 4294967297\n1 4294967296\n"}) {
    const Bytes in = text_bytes(text);
    EXPECT_EQ(expect_refused(in, [&] { (void)read_text(in); }), "")
        << "\"" << text << "\"";
  }
}

/// The graph text reader, built into the CSR index it feeds.
graph::Graph read_graph_text(std::span<const std::byte> in) {
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(in.data()), in.size()));
  return graph::read_edge_list_data(is).build();
}

Bytes write_graph_text(const graph::Graph& g) {
  std::ostringstream os;
  graph::write_edge_list(g, os);
  return text_bytes(os.str());
}

/// Every mutant must throw ParseError or read as a valid graph, which
/// writes out and reads back to the same text.
TEST(TextFuzz, Graph) {
  const Bytes seed =
      text_bytes("6 5 weighted\n0 1 1.5\n# comment\n1 2 2.25\n\n"
                 "2 3 0.5\n3 4 4\n0 5 7.125\n");
  fuzz<graph::ParseError>("graph text", seed, 17,
                          round_trip(read_graph_text, write_graph_text), {},
                          mutate_text);
  expect_tails(seed, [](std::span<const std::byte> in) {
    (void)read_graph_text(in);
  });
}

/// A header's n must not size the CSR index past what the edge lines
/// back: the 13-byte "4294967296 0" asked for 2^32 + 1 offsets.
TEST(TextFuzz, GraphVertexCountIsBounded) {
  for (const std::string text :
       {"4294967296 0\n", "4294967295 1\n0 1\n", "100000 2\n0 1\n2 3\n"}) {
    const Bytes in = text_bytes(text);
    EXPECT_EQ(expect_refused(in, [&] { (void)read_graph_text(in); }), "")
        << "\"" << text << "\"";
  }
}

}  // namespace
}  // namespace mrlr
