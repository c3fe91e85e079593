// darnet::serve::Router -- the multi-tenant sharded front of the serving
// tier (the "millions of users" scale-out story, ROADMAP item 3).
//
// A Router owns N serve::Server shards and routes every ClassifyRequest
// by consistent-hashing its session id onto a ring of virtual nodes, so
// (a) one session always lands on the same shard -- its EWMA + debounce
// streaming state lives there -- and (b) the key space spreads evenly
// for any shard count. Layered *in front of* each shard's accept/shed/
// reject backpressure sit per-tenant admission quotas: deterministic
// token buckets keyed on ClassifyRequest::tenant_id and refilled from
// the serving clock (the injected TimeSource under simulation), so a
// noisy tenant is clipped at the door before it can displace anyone
// else's queued work.
//
// Model rollout is a versioned Snapshot: the EnsembleClassifier each shard
// serves. Entries may repeat, and one ensemble shared by every shard is
// the usual case: an inference pass writes nothing into the model
// (nn::Layer::forward), so any number of shard workers may run passes on
// one replica at once. swap_snapshot() hot-swaps all shards RCU-style:
// each shard's served-ensemble shared_ptr is flipped under its admission
// lock while its worker runs the current batch on the replica it
// snapshotted at batch formation. No request is dropped, no worker
// stalls, and sessions untouched by the weight change see bit-identical
// verdict streams across the swap.
//
// Lock hierarchy: the router's "route/state" mutex ranks *before* the
// per-shard "serve/*" family (DESIGN.md "Lock hierarchy") -- it is held
// across the per-shard pointer flips in swap_snapshot(), which records
// the route/state -> serve/admission edge in the sync:: order graph.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "serve/serve.hpp"

namespace darnet::serve {

/// Deterministic 64-bit mix (the splitmix64 finalizer). Used for ring
/// points and request routing instead of std::hash, whose value is
/// implementation-defined -- routing must be identical on every build
/// for the simulator's bit-reproducibility contract.
[[nodiscard]] constexpr std::uint64_t route_hash(std::uint64_t key) noexcept {
  key += 0x9e3779b97f4a7c15ULL;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return key ^ (key >> 31);
}

/// Per-tenant admission budget: a token bucket holding at most
/// `capacity` tokens, refilled continuously at `refill_per_s`. Every
/// admitted request spends one token; an empty bucket rejects.
struct TenantQuota {
  double capacity = 0.0;
  double refill_per_s = 0.0;
};

/// Router-level policy. The per-shard half of the old monolithic server
/// config lives in ShardConfig; this is everything that only makes sense
/// above a single shard.
struct RouterConfig {
  /// Number of serve::Server shards (and snapshot entries).
  int shards = 1;
  /// Replicated per-shard serving parameters (including the TimeSource
  /// the quota buckets also refill from).
  ShardConfig shard;
  /// Tenant id -> admission budget. Tenants absent from the map are
  /// unmetered (admission falls through to shard backpressure alone).
  std::map<std::uint64_t, TenantQuota> quotas;
};

/// Consistent-hash session->shard router with per-tenant quotas and
/// versioned hot-swappable ensemble snapshots. Thread-safe: submit()
/// may race with itself, swap_snapshot() and drain().
class Router {
 public:
  /// A versioned weight rollout: the ensemble each shard serves, one
  /// entry per shard, all with the same weights so any shard serves
  /// identical math. Entries may repeat (see the file comment).
  struct Snapshot {
    std::uint64_t version{0};
    std::vector<std::shared_ptr<engine::EnsembleClassifier>> replicas;
  };

  /// `snapshot.replicas.size()` must equal `config.shards`, and every
  /// entry must be non-null.
  Router(Snapshot snapshot, RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Route one request: charge the tenant's quota bucket (if metered),
  /// then forward to the session's shard. A quota rejection returns
  /// Admit::kRejected with the future already resolved to
  /// Status::kRejected -- the same always-resolved contract as
  /// Server::submit.
  [[nodiscard]] Server::Submission submit(engine::ClassifyRequest request);

  /// The shard a session routes to (pure function of the ring).
  [[nodiscard]] int shard_for(std::uint64_t session_id) const noexcept;

  /// Hot-swap to `next` (see file comment). next.version must be
  /// strictly greater than the current version, and next.replicas must
  /// meet the constructor's rules (one non-null entry per shard); throws
  /// std::invalid_argument otherwise, serving on unchanged.
  void swap_snapshot(Snapshot next);

  /// Version of the snapshot currently being served.
  [[nodiscard]] std::uint64_t snapshot_version() const;

  /// Drain every shard (stop admission, flush, join). Idempotent; the
  /// destructor calls it. After drain() returns, submit() rejects.
  void drain();

  [[nodiscard]] int shards() const noexcept {
    return static_cast<int>(shards_.size());
  }
  /// Direct access to one shard (stats, force_degraded, session peeks).
  [[nodiscard]] Server& shard(int index);

  /// Aggregate router counters plus a per-shard stats snapshot.
  struct Stats {
    std::uint64_t routed{0};
    std::uint64_t quota_rejected{0};
    std::uint64_t snapshot_swaps{0};
    std::vector<Server::Stats> per_shard;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const RouterConfig& config() const noexcept {
    return config_;
  }

  /// The router's notion of now: the injected shard TimeSource when one is
  /// configured, std::chrono::steady_clock otherwise. Public so layers in
  /// front (the HTTP edge's deadline stamping) share the same clock instead
  /// of reading the wall clock directly (rule time-source-purity).
  [[nodiscard]] std::chrono::steady_clock::time_point clock_now()
      const noexcept;

 private:
  struct Bucket {
    double tokens{0.0};
    std::chrono::steady_clock::time_point refilled;
  };

  // True when the tenant may pass (spends one token). REQUIRES: mu_ held.
  [[nodiscard]] bool charge_tenant(std::uint64_t tenant_id);

  const RouterConfig config_;
  // Both fixed at construction: the shard set and the sorted ring of
  // (route_hash point, shard) virtual nodes. Lock-free reads.
  const std::vector<std::unique_ptr<Server>> shards_;
  const std::vector<std::pair<std::uint64_t, int>> ring_;

  // Router policy state. Ranks before the per-shard serve/* family:
  // swap_snapshot() holds it across the shards' pointer flips.
  mutable sync::Mutex mu_{"route/state"};
  std::map<std::uint64_t, Bucket> buckets_ DARNET_GUARDED_BY(mu_);
  std::uint64_t version_ DARNET_GUARDED_BY(mu_){0};
  std::uint64_t routed_ DARNET_GUARDED_BY(mu_){0};
  std::uint64_t quota_rejected_ DARNET_GUARDED_BY(mu_){0};
  std::uint64_t swaps_ DARNET_GUARDED_BY(mu_){0};
};

}  // namespace darnet::serve
