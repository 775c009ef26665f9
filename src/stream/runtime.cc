#include "stream/runtime.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "util/strings.h"

namespace icewafl {

namespace {

/// Drives `*batch` through ops[first..], leaving the chain output in
/// `*result` (appended). The batch is consumed.
Status RunBatchThroughOps(const std::vector<Operator*>& ops, size_t first,
                          TupleVector* batch, TupleVector* result) {
  if (first >= ops.size()) {
    for (Tuple& t : *batch) result->push_back(std::move(t));
    batch->clear();
    return Status::OK();
  }
  TupleVector current = std::move(*batch);
  batch->clear();
  TupleVector next;
  for (size_t i = first; i < ops.size(); ++i) {
    next.clear();
    VectorEmitter emitter(&next);
    ICEWAFL_RETURN_NOT_OK(ops[i]->ProcessBatch(&current, &emitter));
    std::swap(current, next);
  }
  for (Tuple& t : current) result->push_back(std::move(t));
  return Status::OK();
}

/// Flushes buffered operator state front-to-back; each operator's
/// re-emissions traverse the remaining chain.
Status FinishOps(const std::vector<Operator*>& ops, TupleVector* result) {
  for (size_t i = 0; i < ops.size(); ++i) {
    TupleVector flushed;
    VectorEmitter emitter(&flushed);
    ICEWAFL_RETURN_NOT_OK(ops[i]->Finish(&emitter));
    ICEWAFL_RETURN_NOT_OK(RunBatchThroughOps(ops, i + 1, &flushed, result));
  }
  return Status::OK();
}

/// Tracks how many tuples sit in channels right now and the high-water
/// mark — the runtime's steady-state memory claim is exactly this value
/// staying flat while the stream length grows.
class BufferGauge {
 public:
  void Add(size_t n) {
    const int64_t now =
        buffered_.fetch_add(static_cast<int64_t>(n),
                            std::memory_order_relaxed) +
        static_cast<int64_t>(n);
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void Remove(size_t n) {
    buffered_.fetch_sub(static_cast<int64_t>(n), std::memory_order_relaxed);
  }
  uint64_t peak() const {
    const int64_t p = peak_.load(std::memory_order_relaxed);
    return p > 0 ? static_cast<uint64_t>(p) : 0;
  }

 private:
  std::atomic<int64_t> buffered_{0};
  std::atomic<int64_t> peak_{0};
};

}  // namespace

std::string RuntimeStats::ToString() const {
  std::string s = "tuples=" + std::to_string(source_tuples) + "->" +
                  std::to_string(sink_tuples) +
                  " batches=" + std::to_string(batches) +
                  " blocked_pushes=" + std::to_string(blocked_pushes) +
                  " blocked_pops=" + std::to_string(blocked_pops) +
                  " try_push_full=" + std::to_string(try_push_full) +
                  " try_push_closed=" + std::to_string(try_push_closed) +
                  " peak_buffered_tuples=" +
                  std::to_string(peak_buffered_tuples) +
                  " wall_s=" + FormatDouble(wall_seconds, 4);
  return s;
}

Status PipelineRuntime::Run(Source* source, const ChainFactory& chain_factory,
                            Sink* sink) {
  if (options_.parallelism < 1) {
    return Status::InvalidArgument("parallelism must be >= 1");
  }
  const size_t workers = static_cast<size_t>(options_.parallelism);
  const size_t batch_size = options_.batch_size < 1 ? 1 : options_.batch_size;
  const size_t capacity =
      options_.channel_capacity < 1 ? 1 : options_.channel_capacity;
  const auto wall_start = std::chrono::steady_clock::now();

  stats_ = RuntimeStats{};
  stats_.stages.assign(workers + 2, StageStats{});
  StageStats& source_stage = stats_.stages.front();
  StageStats& sink_stage = stats_.stages.back();
  source_stage.stage = "source";
  sink_stage.stage = "sink";
  for (size_t w = 0; w < workers; ++w) {
    stats_.stages[w + 1].stage = "worker" + std::to_string(w);
  }

  std::vector<std::unique_ptr<BatchChannel>> inputs;
  std::vector<std::unique_ptr<BatchChannel>> outputs;
  inputs.reserve(workers);
  outputs.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    inputs.push_back(std::make_unique<BatchChannel>(capacity));
    outputs.push_back(std::make_unique<BatchChannel>(capacity));
  }
  // Written rows on their way back to the source; non-blocking at both
  // ends, and taken under no other lock. It holds as many batches as
  // the input channels, and a batch that does not fit is freed.
  BatchChannel returned(capacity * workers);

  // Registry handles per stage, resolved once up front so the stage
  // loops pay only a pointer-null check (metrics off) or a relaxed
  // atomic add per batch (metrics on).
  struct StageHandles {
    obs::Counter* tuples_in = nullptr;
    obs::Counter* tuples_out = nullptr;
    obs::Counter* batches = nullptr;
  };
  std::vector<StageHandles> handles(workers + 2);
  obs::Histogram* batch_histogram = nullptr;
  obs::MetricRegistry* const metrics = options_.metrics;
  if (metrics != nullptr) {
    for (size_t s = 0; s < workers + 2; ++s) {
      const obs::Labels labels = {{"stage", stats_.stages[s].stage}};
      handles[s].tuples_in =
          metrics->GetCounter("icewafl_stage_tuples_in_total", labels,
                              "Tuples entering a pipeline stage");
      handles[s].tuples_out =
          metrics->GetCounter("icewafl_stage_tuples_out_total", labels,
                              "Tuples leaving a pipeline stage");
      handles[s].batches =
          metrics->GetCounter("icewafl_stage_batches_total", labels,
                              "Batches handled by a pipeline stage");
      // Stage loops gate all three on one null check; if any counter hit
      // a metric-type conflict, disable the whole stage's handles.
      if (handles[s].tuples_in == nullptr || handles[s].tuples_out == nullptr ||
          handles[s].batches == nullptr) {
        handles[s] = StageHandles{};
      }
    }
    batch_histogram = metrics->GetHistogram(
        "icewafl_runtime_batch_tuples", {},
        obs::ExponentialBounds(1.0, 65536.0, 2.0),
        "Tuples per inter-stage batch");
  }
  obs::TraceRecorder* const trace = options_.trace;
  obs::ScopedSpan run_span(trace, "pipeline_run", "runtime", 0);

  // Single-writer slots, one per stage thread: `source_status` belongs to
  // the source thread, `worker_status[w]` to worker w, `sink_status` to
  // the caller. None of them needs a lock — the thread joins below are
  // the release/acquire edge before the caller aggregates them, which is
  // why they carry no GUARDED_BY annotation (there is no lock to name).
  // Cross-thread signalling happens exclusively through the channels:
  // Close() is end-of-stream, Poison() is the stop flag, and both wake
  // every blocked stage.
  BufferGauge gauge;
  Status source_status;
  std::vector<Status> worker_status(workers);

  auto poison_all = [&] {
    for (auto& ch : inputs) ch->Poison();
    for (auto& ch : outputs) ch->Poison();
  };

  // --- Worker stages ----------------------------------------------------
  std::vector<std::thread> worker_threads;
  worker_threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    worker_threads.emplace_back([&, w] {
      StageStats& stage = stats_.stages[w + 1];
      const StageHandles& obs_handles = handles[w + 1];
      obs::ScopedSpan stage_span(trace, stage.stage, "stage",
                                 static_cast<int64_t>(w) + 1);
      OperatorChain chain = chain_factory(static_cast<int>(w));
      std::vector<Operator*> ops;
      ops.reserve(chain.size());
      for (const auto& op : chain) ops.push_back(op.get());

      TupleVector batch;
      bool downstream_open = true;
      while (inputs[w]->Pop(&batch)) {
        gauge.Remove(batch.size());
        stage.tuples_in += batch.size();
        ++stage.batches;
        if (obs_handles.tuples_in != nullptr) {
          obs_handles.tuples_in->Increment(batch.size());
          obs_handles.batches->Increment();
        }
        TupleVector out_batch;
        Status st = RunBatchThroughOps(ops, 0, &batch, &out_batch);
        if (!st.ok()) {
          worker_status[w] = st;
          inputs[w]->Poison();  // unblock and stop the source
          break;
        }
        stage.tuples_out += out_batch.size();
        if (obs_handles.tuples_out != nullptr) {
          obs_handles.tuples_out->Increment(out_batch.size());
        }
        gauge.Add(out_batch.size());
        const size_t out_size = out_batch.size();
        if (!outputs[w]->Push(std::move(out_batch))) {
          gauge.Remove(out_size);  // consumer aborted; stop quietly
          downstream_open = false;
          break;
        }
      }
      if (worker_status[w].ok() && downstream_open) {
        TupleVector flushed;
        Status st = FinishOps(ops, &flushed);
        if (!st.ok()) {
          worker_status[w] = st;
        } else if (!flushed.empty()) {
          stage.tuples_out += flushed.size();
          if (obs_handles.tuples_out != nullptr) {
            obs_handles.tuples_out->Increment(flushed.size());
          }
          gauge.Add(flushed.size());
          const size_t out_size = flushed.size();
          if (!outputs[w]->Push(std::move(flushed))) gauge.Remove(out_size);
        }
      }
      outputs[w]->Close();
    });
  }

  // --- Source stage -----------------------------------------------------
  std::thread source_thread([&] {
    const StageHandles& obs_handles = handles.front();
    obs::ScopedSpan stage_span(trace, "source", "stage", 0);
    // Per-worker accumulators implementing tuple round-robin: tuple i
    // goes to worker i % parallelism, and a batch flushes once it holds
    // batch_size such tuples. Overlap copies ride along uncounted, so
    // every worker still gets one batch per round.
    std::vector<TupleVector> pending(workers);
    for (TupleVector& p : pending) p.reserve(batch_size);
    std::vector<size_t> routed(workers, 0);
    // Hands pending[w] to worker w; false when the worker has aborted.
    auto push = [&](size_t w) {
      const size_t n = pending[w].size();
      source_stage.tuples_out += n;
      ++source_stage.batches;
      if (obs_handles.tuples_out != nullptr) {
        obs_handles.tuples_out->Increment(n);
        obs_handles.batches->Increment();
      }
      if (batch_histogram != nullptr) {
        batch_histogram->Observe(static_cast<double>(n));
      }
      gauge.Add(n);
      if (inputs[w]->Push(std::move(pending[w]))) return true;
      gauge.Remove(n);
      return false;
    };
    bool aborted = false;
    Tuple tuple;
    // Rows the sink has written and handed back; each is reused as the
    // next `tuple`, so Next assigns into a row's buffers rather than
    // allocating them.
    TupleVector spare;
    uint64_t index = 0;
    while (true) {
      if (spare.empty()) returned.TryPop(&spare);
      if (!spare.empty()) {
        tuple = std::move(spare.back());
        spare.pop_back();
      }
      auto more = source->Next(&tuple);
      if (!more.ok()) {
        source_status = more.status();
        poison_all();
        return;
      }
      if (!more.ValueOrDie()) break;
      const size_t w = static_cast<size_t>(index % workers);
      ++index;
      if (options_.overlap_worker != nullptr) {
        const int other = options_.overlap_worker(static_cast<int>(w));
        if (other >= 0) pending[static_cast<size_t>(other)].push_back(tuple);
      }
      pending[w].push_back(std::move(tuple));
      if (++routed[w] >= batch_size) {
        routed[w] = 0;
        if (!push(w)) {
          // A worker aborted; the remaining stream cannot be processed.
          aborted = true;
          break;
        }
        pending[w] = TupleVector();
        pending[w].reserve(batch_size);
      }
    }
    source_stage.tuples_in = index;
    if (obs_handles.tuples_in != nullptr) obs_handles.tuples_in->Increment(index);
    if (aborted) {
      for (auto& ch : inputs) ch->Poison();
      return;
    }
    for (size_t w = 0; w < workers; ++w) {
      if (!pending[w].empty()) push(w);
    }
    for (auto& ch : inputs) ch->Close();
  });

  // --- Sink stage (caller thread) ---------------------------------------
  // Deterministic rotation over worker output channels; a channel leaves
  // the rotation once closed and drained. Above P=1 every pop feeds the
  // merge, and what it settles is written before the next pop.
  Status sink_status;
  {
    const StageHandles& obs_handles = handles.back();
    obs::ScopedSpan stage_span(trace, "sink", "stage",
                               static_cast<int64_t>(workers) + 1);
    std::vector<bool> done(workers, false);
    size_t remaining = workers;
    size_t w = 0;
    TupleVector batch;
    // The merge: worker k's rows not yet written are queued[k] from
    // next[k] on, each queue in ArrivesBefore order. A row is settled once
    // every open worker has a row queued to compare it with.
    std::vector<TupleVector> queued(workers);
    std::vector<size_t> next(workers, 0);
    TupleVector merged;
    auto drain = [&] {
      while (true) {
        size_t best = workers;
        for (size_t k = 0; k < workers; ++k) {
          if (next[k] == queued[k].size()) {
            if (!done[k]) return;
          } else if (best == workers ||
                     ArrivesBefore(queued[k][next[k]],
                                   queued[best][next[best]])) {
            best = k;
          }
        }
        if (best == workers) return;
        merged.push_back(std::move(queued[best][next[best]++]));
      }
    };
    auto write = [&](TupleVector* rows) {
      const size_t n = rows->size();
      if (n == 0) return;
      Status st = sink->WriteBatch(rows);
      // Return the rows unless the sink moved them out (a moved-from
      // row holds no values to reuse). Above P=1 the merge refills
      // `merged`, so it gets a new buffer.
      if (st.ok() && !rows->empty() && rows->front().num_values() > 0 &&
          rows->back().num_values() > 0) {
        returned.TryPush(std::move(*rows));
        if (workers > 1) rows->reserve(batch_size);
      }
      rows->clear();
      if (!st.ok()) {
        sink_status = st;
        poison_all();
        return;
      }
      sink_stage.tuples_out += n;
      if (obs_handles.tuples_out != nullptr) {
        obs_handles.tuples_out->Increment(n);
      }
    };
    while (remaining > 0 && sink_status.ok()) {
      if (!done[w]) {
        if (!outputs[w]->Pop(&batch)) {
          done[w] = true;
          --remaining;
        } else {
          gauge.Remove(batch.size());
          sink_stage.tuples_in += batch.size();
          ++sink_stage.batches;
          if (obs_handles.tuples_in != nullptr) {
            obs_handles.tuples_in->Increment(batch.size());
            obs_handles.batches->Increment();
          }
          if (workers == 1) {
            write(&batch);
          } else {
            TupleVector& q = queued[w];
            q.erase(q.begin(), q.begin() + static_cast<ptrdiff_t>(next[w]));
            next[w] = 0;
            if (q.empty()) q.swap(batch);
            for (Tuple& t : batch) q.push_back(std::move(t));
            batch.clear();
          }
        }
        if (workers > 1 && sink_status.ok()) {
          drain();
          write(&merged);
        }
      }
      w = (w + 1) % workers;
    }
  }

  source_thread.join();
  for (std::thread& t : worker_threads) t.join();

  // Channel-level counters feed the stage stats: a source/worker push
  // that blocked is backpressure, a worker/sink pop that blocked is
  // starvation.
  for (size_t w = 0; w < workers; ++w) {
    const ChannelStats in = inputs[w]->stats();
    const ChannelStats out = outputs[w]->stats();
    source_stage.blocked_pushes += in.blocked_pushes;
    stats_.stages[w + 1].blocked_pops += in.blocked_pops;
    stats_.stages[w + 1].blocked_pushes += out.blocked_pushes;
    sink_stage.blocked_pops += out.blocked_pops;
    stats_.try_push_full += in.try_push_full + out.try_push_full;
    stats_.try_push_closed += in.try_push_closed + out.try_push_closed;
  }
  stats_.source_tuples = source_stage.tuples_in;
  stats_.sink_tuples = sink_stage.tuples_out;
  stats_.batches = source_stage.batches;
  for (const StageStats& s : stats_.stages) {
    stats_.blocked_pushes += s.blocked_pushes;
    stats_.blocked_pops += s.blocked_pops;
  }
  stats_.peak_buffered_tuples = gauge.peak();
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Post-run publication of the wait/buffering counters: these only
  // become known once the channels are quiescent, so they are pushed to
  // the registry in one shot rather than on the hot path.
  if (metrics != nullptr) {
    for (const StageStats& s : stats_.stages) {
      const obs::Labels labels = {{"stage", s.stage}};
      obs::Counter* blocked_pushes = metrics->GetCounter(
          "icewafl_stage_blocked_pushes_total", labels,
          "Pushes that waited on a full channel (backpressure)");
      if (blocked_pushes != nullptr) {
        blocked_pushes->Increment(s.blocked_pushes);
      }
      obs::Counter* blocked_pops = metrics->GetCounter(
          "icewafl_stage_blocked_pops_total", labels,
          "Pops that waited on an empty channel (starvation)");
      if (blocked_pops != nullptr) blocked_pops->Increment(s.blocked_pops);
    }
    obs::Gauge* peak_buffered = metrics->GetGauge(
        "icewafl_runtime_peak_buffered_tuples", {},
        "High-water mark of tuples buffered in channels");
    if (peak_buffered != nullptr) {
      peak_buffered->SetMax(static_cast<double>(stats_.peak_buffered_tuples));
    }
    obs::Histogram* wall_histogram = metrics->GetHistogram(
        "icewafl_runtime_wall_seconds", {},
        obs::ExponentialBounds(1e-4, 64.0, 2.0),
        "End-to-end wall time of one runtime execution");
    if (wall_histogram != nullptr) wall_histogram->Observe(stats_.wall_seconds);
  }

  ICEWAFL_RETURN_NOT_OK(source_status);
  for (const Status& st : worker_status) ICEWAFL_RETURN_NOT_OK(st);
  ICEWAFL_RETURN_NOT_OK(sink_status);
  return sink->Flush();
}

}  // namespace icewafl
