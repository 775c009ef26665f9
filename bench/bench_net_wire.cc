// Ablation A4: wire-codec throughput. Measures tuple encode and decode
// rates for the length-prefixed binary frame format that
// `icewafl_cli serve` fans out, so serving overhead can be attributed
// to codec vs. socket cost. Reported counters are tuples/s and bytes/s.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/wearable.h"
#include "net/wire.h"
#include "stream/batch.h"
#include "stream/tuple.h"
#include "util/json.h"

namespace {

using namespace icewafl;  // NOLINT

const TupleVector& WearableStream() {
  static const TupleVector stream = [] {
    auto generated = data::GenerateWearable();
    return std::move(generated).ValueOrDie();
  }();
  return stream;
}

void BM_EncodeTupleFrames(benchmark::State& state) {
  const TupleVector& stream = WearableStream();
  size_t bytes = 0;
  size_t tuples = 0;
  for (auto _ : state) {
    for (const Tuple& tuple : stream) {
      const std::string frame = net::EncodeTupleFrame(tuple);
      benchmark::DoNotOptimize(frame.data());
      bytes += frame.size();
    }
    tuples += stream.size();
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EncodeTupleFrames)->Unit(benchmark::kMillisecond);

void BM_DecodeTupleFrames(benchmark::State& state) {
  const TupleVector& stream = WearableStream();
  const SchemaPtr schema = stream.front().schema();
  // Pre-encode the whole stream once; the loop measures decode only.
  std::string wire;
  for (const Tuple& tuple : stream) wire += net::EncodeTupleFrame(tuple);
  size_t tuples = 0;
  for (auto _ : state) {
    net::FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    uint8_t type = 0;
    std::string_view payload;
    Tuple decoded;
    while (true) {
      auto next = decoder.Next(&type, &payload);
      if (!next.ok() || !next.ValueOrDie()) break;
      auto tuple = net::DecodeTuplePayload(payload, schema);
      if (!tuple.ok()) {
        state.SkipWithError(tuple.status().ToString().c_str());
        return;
      }
      decoded = std::move(tuple).ValueOrDie();
      benchmark::DoNotOptimize(decoded.id());
      ++tuples;
    }
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.SetBytesProcessed(static_cast<int64_t>(
      wire.size() * static_cast<size_t>(state.iterations())));
}
BENCHMARK(BM_DecodeTupleFrames)->Unit(benchmark::kMillisecond);

void BM_FrameDecoderChunkedFeed(benchmark::State& state) {
  // Decode under adversarial fragmentation: the wire arrives in chunks
  // of the given size, as a real TCP stream would.
  const size_t chunk = static_cast<size_t>(state.range(0));
  const TupleVector& stream = WearableStream();
  std::string wire;
  for (const Tuple& tuple : stream) wire += net::EncodeTupleFrame(tuple);
  for (auto _ : state) {
    net::FrameDecoder decoder;
    uint8_t type = 0;
    std::string_view payload;
    size_t frames = 0;
    for (size_t off = 0; off < wire.size(); off += chunk) {
      decoder.Feed(wire.data() + off, std::min(chunk, wire.size() - off));
      while (true) {
        auto next = decoder.Next(&type, &payload);
        if (!next.ok() || !next.ValueOrDie()) break;
        ++frames;
      }
    }
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(static_cast<int64_t>(
      wire.size() * static_cast<size_t>(state.iterations())));
}
BENCHMARK(BM_FrameDecoderChunkedFeed)
    ->Arg(64)
    ->Arg(1460)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Batch frame (v2 capability, DESIGN.md section 13): the same stream
// shipped as one column-blob frame per micro-batch instead of one
// frame per tuple.

/// The wearable stream transposed into batch_rows-sized batches.
std::vector<Batch> WearableBatches(size_t batch_rows) {
  const TupleVector& stream = WearableStream();
  std::vector<Batch> batches;
  for (size_t off = 0; off < stream.size(); off += batch_rows) {
    TupleVector slice(
        stream.begin() + static_cast<ptrdiff_t>(off),
        stream.begin() +
            static_cast<ptrdiff_t>(std::min(off + batch_rows, stream.size())));
    auto batch = Batch::FromTuples(slice);
    if (!batch.ok()) std::abort();
    batches.push_back(std::move(batch).ValueOrDie());
  }
  return batches;
}

void BM_EncodeBatchFrames(benchmark::State& state) {
  const std::vector<Batch> batches =
      WearableBatches(static_cast<size_t>(state.range(0)));
  size_t bytes = 0;
  size_t tuples = 0;
  for (auto _ : state) {
    for (const Batch& batch : batches) {
      const std::string frame = net::EncodeBatchFrame(batch);
      benchmark::DoNotOptimize(frame.data());
      bytes += frame.size();
      tuples += batch.rows();
    }
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EncodeBatchFrames)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_DecodeBatchFrames(benchmark::State& state) {
  const SchemaPtr schema = WearableStream().front().schema();
  std::string wire;
  for (const Batch& batch :
       WearableBatches(static_cast<size_t>(state.range(0)))) {
    wire += net::EncodeBatchFrame(batch);
  }
  size_t tuples = 0;
  for (auto _ : state) {
    net::FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    uint8_t type = 0;
    std::string_view payload;
    while (true) {
      auto next = decoder.Next(&type, &payload);
      if (!next.ok() || !next.ValueOrDie()) break;
      auto batch = net::DecodeBatchPayload(payload, schema);
      if (!batch.ok()) {
        state.SkipWithError(batch.status().ToString().c_str());
        return;
      }
      tuples += batch.ValueOrDie().rows();
      benchmark::DoNotOptimize(batch.ValueOrDie().rows());
    }
  }
  state.counters["tuples/s"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
  state.SetBytesProcessed(static_cast<int64_t>(
      wire.size() * static_cast<size_t>(state.iterations())));
}
BENCHMARK(BM_DecodeBatchFrames)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// Measures tuple-frame vs batch-frame codec wall time over the same
/// stream and writes BENCH_wire.json: per-path seconds, bytes on the
/// wire, and the encode/decode speedups. The encode floor is 1x — the
/// batch framing exists so FanoutSink can encode once per micro-batch,
/// so it must never be slower than per-tuple framing.
bool WireCodecReport(const std::string& out) {
  const TupleVector& stream = WearableStream();
  const SchemaPtr schema = stream.front().schema();
  const std::vector<Batch> batches = WearableBatches(256);

  const auto best_of = [](auto&& pass) {
    double best = 1e100;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      pass();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() < best) best = elapsed.count();
    }
    return best;
  };

  size_t tuple_bytes = 0;
  const double tuple_encode_s = best_of([&] {
    tuple_bytes = 0;
    for (const Tuple& tuple : stream) {
      const std::string frame = net::EncodeTupleFrame(tuple);
      benchmark::DoNotOptimize(frame.data());
      tuple_bytes += frame.size();
    }
  });
  size_t batch_bytes = 0;
  const double batch_encode_s = best_of([&] {
    batch_bytes = 0;
    for (const Batch& batch : batches) {
      const std::string frame = net::EncodeBatchFrame(batch);
      benchmark::DoNotOptimize(frame.data());
      batch_bytes += frame.size();
    }
  });

  std::string tuple_wire;
  for (const Tuple& tuple : stream) tuple_wire += net::EncodeTupleFrame(tuple);
  std::string batch_wire;
  for (const Batch& batch : batches) batch_wire += net::EncodeBatchFrame(batch);
  const auto drain = [&](const std::string& wire, auto&& decode_payload) {
    net::FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    uint8_t type = 0;
    std::string_view payload;
    while (true) {
      auto next = decoder.Next(&type, &payload);
      if (!next.ok() || !next.ValueOrDie()) break;
      decode_payload(payload);
    }
  };
  const double tuple_decode_s = best_of([&] {
    drain(tuple_wire, [&](std::string_view payload) {
      auto tuple = net::DecodeTuplePayload(payload, schema);
      if (!tuple.ok()) std::abort();
      benchmark::DoNotOptimize(tuple.ValueOrDie().id());
    });
  });
  const double batch_decode_s = best_of([&] {
    drain(batch_wire, [&](std::string_view payload) {
      auto batch = net::DecodeBatchPayload(payload, schema);
      if (!batch.ok()) std::abort();
      benchmark::DoNotOptimize(batch.ValueOrDie().rows());
    });
  });

  const double encode_speedup = tuple_encode_s / batch_encode_s;
  const double decode_speedup = tuple_decode_s / batch_decode_s;
  Json report = Json::MakeObject();
  report.Set("bench", Json(std::string("net_wire_codec")));
  report.Set("tuples", Json(static_cast<int64_t>(stream.size())));
  report.Set("batch_rows", Json(int64_t{256}));
  report.Set("tuple_encode_seconds", Json(tuple_encode_s));
  report.Set("batch_encode_seconds", Json(batch_encode_s));
  report.Set("tuple_decode_seconds", Json(tuple_decode_s));
  report.Set("batch_decode_seconds", Json(batch_decode_s));
  report.Set("tuple_wire_bytes", Json(static_cast<int64_t>(tuple_bytes)));
  report.Set("batch_wire_bytes", Json(static_cast<int64_t>(batch_bytes)));
  report.Set("encode_speedup", Json(encode_speedup));
  report.Set("decode_speedup", Json(decode_speedup));
  const std::string text = report.DumpPretty() + "\n";
  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  std::fprintf(stderr,
               "wire-codec: encode %.2fx, decode %.2fx (batch vs tuple "
               "frames) → %s\n",
               encode_speedup, decode_speedup, out.c_str());
  if (encode_speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: batch-frame encoding is slower than per-tuple "
                 "framing (%.2fx) — the encode-once path regressed\n",
                 encode_speedup);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own --out flag before google-benchmark sees the args.
  std::string out = "BENCH_wire.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!WireCodecReport(out)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
