#include "serve/router.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace darnet::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Ring points per shard. More points smooth the key-space split at the
/// cost of a larger (still binary-searched) ring.
constexpr int kVirtualNodes = 64;

/// The rules every snapshot meets, at construction and at each hot-swap:
/// one non-null entry per shard. Entries may repeat: inference writes
/// nothing into a model, so shards may share one.
void check_snapshot(const Router::Snapshot& snapshot, std::size_t shards) {
  if (snapshot.replicas.size() != shards) {
    throw std::invalid_argument(
        "serve::Router: snapshot must carry one replica per shard");
  }
  for (const auto& replica : snapshot.replicas) {
    if (!replica) {
      throw std::invalid_argument(
          "serve::Router: snapshot replica must not be null");
    }
  }
}

[[nodiscard]] std::vector<std::unique_ptr<Server>> make_shards(
    Router::Snapshot& snapshot, const RouterConfig& config) {
  if (config.shards < 1) {
    throw std::invalid_argument("serve::Router: shards must be >= 1");
  }
  check_snapshot(snapshot, static_cast<std::size_t>(config.shards));
  for (const auto& [tenant, quota] : config.quotas) {
    (void)tenant;
    if (quota.capacity < 1.0 || quota.refill_per_s < 0.0) {
      throw std::invalid_argument(
          "serve::Router: tenant quota needs capacity >= 1 and "
          "refill_per_s >= 0");
    }
  }
  std::vector<std::unique_ptr<Server>> shards;
  shards.reserve(snapshot.replicas.size());
  for (auto& replica : snapshot.replicas) {
    shards.push_back(
        std::make_unique<Server>(std::move(replica), config.shard));
  }
  return shards;
}

[[nodiscard]] std::vector<std::pair<std::uint64_t, int>> build_ring(
    const RouterConfig& config) {
  std::vector<std::pair<std::uint64_t, int>> ring;
  ring.reserve(static_cast<std::size_t>(config.shards) *
               static_cast<std::size_t>(kVirtualNodes));
  for (int shard = 0; shard < config.shards; ++shard) {
    for (int node = 0; node < kVirtualNodes; ++node) {
      // Double-hash the ring into its own domain. The raw (shard, node)
      // key for shard 0 is the integer `node` itself, so a single
      // route_hash would put every session id below kVirtualNodes
      // bit-exactly on a shard-0 point -- the whole small-id key space
      // would collapse onto one shard.
      const std::uint64_t point = route_hash(route_hash(
          (static_cast<std::uint64_t>(shard) << 32) |
          static_cast<std::uint64_t>(node)));
      ring.emplace_back(point, shard);
    }
  }
  std::sort(ring.begin(), ring.end());
  return ring;
}

/// An Admit::kRejected submission whose future is already resolved --
/// the router's quota door keeps the always-resolved future contract.
[[nodiscard]] Server::Submission rejected_submission() {
  std::promise<Response> promise;
  Server::Submission out;
  out.admit = Admit::kRejected;
  out.response = promise.get_future();
  Response response;
  response.status = Status::kRejected;
  promise.set_value(std::move(response));
  return out;
}

}  // namespace

Router::Router(Snapshot snapshot, RouterConfig config)
    : config_(std::move(config)),
      shards_(make_shards(snapshot, config_)),
      ring_(build_ring(config_)) {
  version_ = snapshot.version;
  // Through the registry, not DARNET_GAUGE_SET: /metrics reports the shard
  // count in every build mode, DARNET_OBS=OFF included.
  obs::registry().gauge("route/shards").set(static_cast<double>(shards()));
}

Router::~Router() { drain(); }

Clock::time_point Router::clock_now() const noexcept {
  return config_.shard.time_source ? config_.shard.time_source->now()
                                   : Clock::now();
}

int Router::shard_for(std::uint64_t session_id) const noexcept {
  const std::uint64_t point = route_hash(session_id);
  // First ring node at or after the hashed point, wrapping to the start
  // (the classic consistent-hash successor walk, O(log ring)).
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<std::uint64_t, int>& node, std::uint64_t key) {
        return node.first < key;
      });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

// REQUIRES: mu_ held. Continuous refill keeps the bucket a pure
// function of (quota, touch times), so under a virtual TimeSource the
// admit/reject sequence is bit-reproducible.
bool Router::charge_tenant(std::uint64_t tenant_id) {
  DARNET_ASSERT_HELD(mu_);
  const auto quota = config_.quotas.find(tenant_id);
  if (quota == config_.quotas.end()) return true;
  const auto now = clock_now();
  auto [it, fresh] = buckets_.try_emplace(tenant_id);
  Bucket& bucket = it->second;
  if (fresh) {
    bucket.tokens = quota->second.capacity;  // start with a full burst
    bucket.refilled = now;
  } else if (now > bucket.refilled) {
    const double elapsed_s =
        std::chrono::duration<double>(now - bucket.refilled).count();
    bucket.tokens = std::min(
        quota->second.capacity,
        bucket.tokens + elapsed_s * quota->second.refill_per_s);
    bucket.refilled = now;
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

Server::Submission Router::submit(engine::ClassifyRequest request) {
  bool admitted;
  {
    sync::Lock lock(mu_);
    admitted = charge_tenant(request.tenant_id);
    if (admitted) {
      ++routed_;
    } else {
      ++quota_rejected_;
    }
  }
  // Promise resolution and shard admission both run with route/state
  // released: the quota door adds no lock nesting on the request path.
  if (!admitted) {
    DARNET_COUNTER_ADD("route/quota_rejected_total", 1);
    return rejected_submission();
  }
  DARNET_COUNTER_ADD("route/requests_routed_total", 1);
  const int shard_index = shard_for(request.session_id);
  return shards_[static_cast<std::size_t>(shard_index)]->submit(
      std::move(request));
}

void Router::swap_snapshot(Snapshot next) {
  check_snapshot(next, shards_.size());
  sync::Lock lock(mu_);
  if (next.version <= version_) {
    throw std::invalid_argument(
        "serve::Router::swap_snapshot: version must increase "
        "monotonically (stale rollout?)");
  }
  // The RCU write side: flip every shard's served-ensemble pointer under
  // route/state (recording the route/state -> serve/admission lock-order
  // edge). In-flight batches keep serving the replica they snapshotted.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    (void)shards_[i]->swap_ensemble(std::move(next.replicas[i]));
  }
  version_ = next.version;
  ++swaps_;
  DARNET_COUNTER_ADD("route/snapshot_swaps_total", 1);
}

std::uint64_t Router::snapshot_version() const {
  sync::Lock lock(mu_);
  return version_;
}

void Router::drain() {
  for (const auto& shard : shards_) shard->drain();
}

Server& Router::shard(int index) {
  if (index < 0 || index >= shards()) {
    throw std::out_of_range("serve::Router::shard: index out of range");
  }
  return *shards_[static_cast<std::size_t>(index)];
}

Router::Stats Router::stats() const {
  Stats out;
  {
    sync::Lock lock(mu_);
    out.routed = routed_;
    out.quota_rejected = quota_rejected_;
    out.snapshot_swaps = swaps_;
  }
  out.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.per_shard.push_back(shard->stats());
  }
  return out;
}

}  // namespace darnet::serve
