#include "campaign_fabric/coordinator.hpp"

#include <algorithm>
#include <condition_variable>
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
//
// Workers never touch the checkpoint: they queue each completion and
// claim the next shard at once. The caller thread, which would otherwise
// idle in join(), is the only writer (write-behind with group commit).
// A completion counts (payloads, durable, shards_executed) only once
// the caller has made its frame durable.
struct Scheduler {
  const FabricConfig& config;
  const ShardPlan& plan;
  const ShardRunner& runner;

  std::mutex mu;
  std::condition_variable ready;  ///< a completion queued or a worker left
  /// Payload of every durable shard (resumed or committed this run).
  /// Only the caller thread writes it.
  std::vector<std::optional<std::vector<std::uint8_t>>> payloads;
  std::vector<ShardRecord> queued;  ///< completed, not yet durable
  std::size_t active = 0;   ///< workers still claiming or running
  std::size_t next = 0;     ///< lowest shard not yet claimed
  std::size_t durable = 0;  ///< resumed + committed (halt counter)
  bool halted = false;
  std::size_t failed = 0;   ///< lowest shard that threw (size() = none)
  std::string failed_error;
  /// Caller-side failure (a checkpoint write or a worker start); it
  /// stops claims and is rethrown once the workers are joined.
  std::exception_ptr caller_error;
  FabricStats stats;

  Scheduler(const FabricConfig& cfg, const ShardPlan& p, const ShardRunner& r)
      : config(cfg), plan(p), runner(r), payloads(p.shards.size()),
        failed(p.shards.size()) {}

  /// Durable shards as checkpoint records, in shard-index order.
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
  /// outside the lock, queue the outcome for the caller, repeat.
  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu);
    while (!halted && !caller_error) {
      while (next < payloads.size() && payloads[next]) ++next;
      if (next == payloads.size()) break;
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
      // Completed after the simulated crash point or a caller-side
      // failure: never durable.
      if (halted || caller_error) break;
      queued.push_back({static_cast<std::uint32_t>(index), std::move(payload)});
      ready.notify_one();
    }
    --active;
    ready.notify_one();
  }

  /// The next group commit: every completion queued since the last one,
  /// cut at the halt (the cut batch is the last; later completions are
  /// discarded). A lone completion waits for a second while a worker
  /// still runs, so every batch but the last holds at least two frames:
  /// n >= 2 executed shards cost at most n - 1 appends. Empty once
  /// nothing more will become durable.
  std::vector<ShardRecord> next_batch() {
    std::unique_lock<std::mutex> lock(mu);
    ready.wait(lock, [this] {
      return halted || active == 0 || queued.size() >= 2 ||
             durable + queued.size() >= config.halt_after_shards;
    });
    if (halted) return {};
    std::vector<ShardRecord> batch = std::move(queued);
    queued.clear();
    if (durable + batch.size() >= config.halt_after_shards) {
      batch.resize(config.halt_after_shards - durable);
      halted = true;
    }
    return batch;
  }

  /// Counts a batch whose frames are durable.
  void commit(std::vector<ShardRecord>& batch) {
    const std::lock_guard<std::mutex> lock(mu);
    for (ShardRecord& record : batch) {
      payloads[record.shard_index] = std::move(record.payload);
    }
    durable += batch.size();
    stats.shards_executed += batch.size();
  }

  /// The caller's half of a run. Its first write replaces the file with
  /// the header and every resumed record, which compacts a resumed
  /// file's torn tail and replaces a foreign file; it depends on no
  /// result, so it overlaps the first shards. Each later batch is one
  /// append and one fdatasync. With one shard pending there is nothing
  /// to overlap a separate append with, so its record rides in the
  /// replace. A crash mid-write leaves either the previous file (atomic
  /// replace) or whole frames and a torn last frame the reader drops
  /// (append).
  void write_behind() {
    const std::string& path = config.checkpoint_path;
    std::vector<ShardRecord> batch;
    if (payloads.size() - durable == 1) batch = next_batch();
    if (!path.empty()) {
      std::vector<ShardRecord> file = records();
      file.insert(file.end(), batch.begin(), batch.end());
      save_checkpoint(path, plan.campaign_fingerprint,
                      static_cast<std::uint32_t>(payloads.size()), file);
    }
    commit(batch);
    while (!(batch = next_batch()).empty()) {
      if (!path.empty()) append_checkpoint_records(path, batch);
      commit(batch);
    }
  }

  /// Runs the pending shards on the workers while the caller writes
  /// behind them; returns once every worker has stopped.
  void run() {
    const std::size_t workers = std::max<std::size_t>(1, config.workers);
    active = workers;
    std::vector<std::thread> threads;
    try {
      threads.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([this] { worker_loop(); });
      }
      write_behind();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      caller_error = std::current_exception();
    }
    for (std::thread& t : threads) t.join();
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
    sched.run();
  }
  if (sched.caller_error) std::rethrow_exception(sched.caller_error);
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
