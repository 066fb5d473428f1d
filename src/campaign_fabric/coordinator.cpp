#include "campaign_fabric/coordinator.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

namespace hybridcnn::fabric {
namespace detail {

namespace {

// Workers claim shards in index order and never release a claim, so one
// cursor over the plan is the whole dispatch queue. Every shard is a
// pure function of its descriptor and the merge order is fixed by the
// plan, so which worker ran which shard cannot reach the merged summary.
struct Scheduler {
  const FabricConfig& config;
  const ShardPlan& plan;
  const ShardRunner& runner;

  std::mutex mu;
  /// Payload of every durable shard (resumed or completed this run).
  std::vector<std::optional<std::vector<std::uint8_t>>> payloads;
  std::size_t next = 0;     ///< lowest shard not yet claimed
  std::size_t durable = 0;  ///< resumed + completed (halt counter)
  bool halted = false;
  std::size_t failed = 0;   ///< lowest shard that threw (size() = none)
  std::string failed_error;
  std::exception_ptr persist_error;  ///< checkpoint write failure
  FabricStats stats;

  Scheduler(const FabricConfig& cfg, const ShardPlan& p, const ShardRunner& r)
      : config(cfg), plan(p), runner(r), payloads(p.shards.size()),
        failed(p.shards.size()) {}

  /// Completed shards as checkpoint records, in shard-index order.
  [[nodiscard]] std::vector<ShardRecord> records() const {
    std::vector<ShardRecord> out;
    out.reserve(durable);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      if (payloads[i]) {
        out.push_back({static_cast<std::uint32_t>(i), *payloads[i]});
      }
    }
    return out;
  }

  /// One worker thread: claim the lowest pending shard, execute it once
  /// outside the lock, record the outcome, repeat. `mu` serialises
  /// checkpoint writers, and the atomic rename means a crash at any
  /// point leaves the previous file intact.
  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!halted && !persist_error) {
      while (next < payloads.size() && payloads[next]) ++next;
      if (next == payloads.size()) return;
      const std::size_t index = next++;
      ++stats.attempts;
      const ShardDescriptor descriptor = plan.shards[index];

      lock.unlock();
      std::vector<std::uint8_t> payload;
      std::optional<std::string> error;
      try {
        if (config.attempt_hook) config.attempt_hook(descriptor);
        payload = runner(descriptor);
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown exception";
      }
      lock.lock();

      if (error) {
        if (index < failed) {
          failed = index;
          failed_error = std::move(*error);
        }
        continue;
      }
      // Completed after the simulated crash point or a failed write:
      // never durable.
      if (halted || persist_error) return;
      payloads[index] = std::move(payload);
      ++stats.shards_executed;
      ++durable;
      try {
        if (!config.checkpoint_path.empty()) {
          save_checkpoint(config.checkpoint_path, plan.campaign_fingerprint,
                          static_cast<std::uint32_t>(payloads.size()),
                          records());
        }
      } catch (...) {
        persist_error = std::current_exception();
        return;
      }
      if (durable >= config.halt_after_shards) halted = true;
    }
  }
};

}  // namespace

RunOutcome run_shards(
    const FabricConfig& config, const ShardPlan& plan,
    const ShardRunner& runner,
    const std::function<bool(const ShardRecord&)>& payload_valid) {
  Scheduler sched(config, plan, runner);
  sched.stats.shards_total = plan.shards.size();

  // Resume: adopt every durable record that passes the campaign
  // fingerprint (checked by load_checkpoint) and the codec's own
  // validation. Anything invalid is simply re-run.
  if (!config.checkpoint_path.empty()) {
    const CheckpointLoad loaded =
        load_checkpoint(config.checkpoint_path, plan.campaign_fingerprint,
                        static_cast<std::uint32_t>(plan.shards.size()));
    for (const ShardRecord& record : loaded.records) {
      if (!payload_valid(record)) continue;
      sched.payloads[record.shard_index] = record.payload;
      ++sched.stats.shards_resumed;
      ++sched.durable;
    }
  }
  if (sched.durable >= config.halt_after_shards) sched.halted = true;

  if (!sched.halted && sched.durable < sched.payloads.size()) {
    const std::size_t workers = std::max<std::size_t>(1, config.workers);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&sched] { sched.worker_loop(); });
    }
    for (std::thread& t : threads) t.join();
  }
  if (sched.persist_error) std::rethrow_exception(sched.persist_error);
  if (!sched.halted && sched.failed < sched.payloads.size()) {
    throw FabricError(static_cast<std::uint32_t>(sched.failed),
                      "fabric: shard " + std::to_string(sched.failed) +
                          " failed: " + sched.failed_error);
  }

  RunOutcome outcome;
  outcome.records = sched.records();
  outcome.stats = sched.stats;
  outcome.stats.halted = sched.halted;
  outcome.complete = sched.durable == sched.payloads.size();
  return outcome;
}

}  // namespace detail
}  // namespace hybridcnn::fabric
