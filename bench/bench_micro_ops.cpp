// Google-benchmark micro suite: per-operation cost of the overloaded
// executors (Algorithms 1-2 + TMR) and of the kernels they compose into.
// These are the constants behind Table 1's ratios.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "faultsim/injector.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_ref.hpp"
#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "reliable/reliable_conv.hpp"
#include "reliable/reliable_linear.hpp"
#include "runtime/compute_context.hpp"
#include "sax/sax_word.hpp"
#include "util/rng.hpp"
#include "vision/radial.hpp"

namespace {

using namespace hybridcnn;

void BM_QualifiedMul(benchmark::State& state, const char* scheme) {
  const auto exec = reliable::make_executor(scheme, nullptr);
  float a = 1.2345f;
  const float b = 0.9876f;
  for (auto _ : state) {
    const auto q = exec->mul(a, b);
    benchmark::DoNotOptimize(q.value);
    a = q.value * 1e-6f + 1.0f;  // serialise iterations
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_QualifiedMul, simplex, "simplex");
BENCHMARK_CAPTURE(BM_QualifiedMul, dmr, "dmr");
BENCHMARK_CAPTURE(BM_QualifiedMul, tmr, "tmr");

void BM_QualifiedMulUnderInjection(benchmark::State& state) {
  faultsim::FaultConfig cfg;
  cfg.kind = faultsim::FaultKind::kTransient;
  cfg.probability = 1e-6;
  auto inj = std::make_shared<faultsim::FaultInjector>(cfg, 1);
  const auto exec = reliable::make_executor("dmr", inj);
  float a = 1.5f;
  for (auto _ : state) {
    const auto q = exec->mul(a, 2.0f);
    benchmark::DoNotOptimize(q.value);
    a = q.value * 1e-6f + 1.0f;
  }
}
BENCHMARK(BM_QualifiedMulUnderInjection);

void BM_LeakyBucketSuccess(benchmark::State& state) {
  reliable::LeakyBucket bucket;
  for (auto _ : state) {
    bucket.record_success();
    benchmark::DoNotOptimize(bucket.level());
  }
}
BENCHMARK(BM_LeakyBucketSuccess);

void BM_ReliableConvSmall(benchmark::State& state, const char* scheme) {
  util::Rng rng(1);
  tensor::Tensor weights(tensor::Shape{4, 3, 5, 5});
  weights.fill_normal(rng, 0.0f, 0.2f);
  tensor::Tensor bias(tensor::Shape{4});
  const reliable::ReliableConv2d conv(weights, bias,
                                      reliable::ConvSpec{1, 2});
  tensor::Tensor input(tensor::Shape{3, 16, 16});
  input.fill_normal(rng, 0.0f, 1.0f);
  const auto exec = reliable::make_executor(scheme, nullptr);
  for (auto _ : state) {
    const auto result = conv.forward(input, *exec);
    benchmark::DoNotOptimize(result.output.data().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(conv.mac_count(input.shape())));
}
BENCHMARK_CAPTURE(BM_ReliableConvSmall, simplex, "simplex");
BENCHMARK_CAPTURE(BM_ReliableConvSmall, dmr, "dmr");
BENCHMARK_CAPTURE(BM_ReliableConvSmall, tmr, "tmr");

void BM_NativeConvSmall(benchmark::State& state) {
  util::Rng rng(1);
  nn::Conv2d conv(3, 4, 5, 1, 2);
  conv.init_he(rng);
  tensor::Tensor input(tensor::Shape{1, 3, 16, 16});
  input.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    const auto out = conv.infer(input, runtime::thread_scratch());
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_NativeConvSmall);

// ------------------------------------------------------------------ GEMM
// Conv2-like shape: the im2col hot path of the CNN engine. items/sec is
// multiply-accumulates, so the counter reads directly as MAC throughput.
constexpr std::size_t kGemmM = 96;
constexpr std::size_t kGemmK = 363;
constexpr std::size_t kGemmN = 3136;

struct GemmData {
  std::vector<float> a, b, c;
  GemmData() : a(kGemmM * kGemmK), b(kGemmK * kGemmN), c(kGemmM * kGemmN) {
    util::Rng rng(5);
    for (auto& v : a) v = static_cast<float>(rng.normal()) * 0.1f;
    for (auto& v : b) v = static_cast<float>(rng.normal()) * 0.1f;
  }
};

void BM_GemmSeedKernel(benchmark::State& state) {
  GemmData d;
  for (auto _ : state) {
    nn::ref::gemm(kGemmM, kGemmK, kGemmN, d.a.data(), d.b.data(),
                  d.c.data());
    benchmark::DoNotOptimize(d.c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kGemmM * kGemmK *
                                                    kGemmN));
}
BENCHMARK(BM_GemmSeedKernel);

void BM_GemmBlocked(benchmark::State& state) {
  const std::size_t prior = runtime::ComputeContext::global().slot_count();
  runtime::ComputeContext::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  GemmData d;
  for (auto _ : state) {
    nn::gemm(kGemmM, kGemmK, kGemmN, d.a.data(), d.b.data(), d.c.data());
    benchmark::DoNotOptimize(d.c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kGemmM * kGemmK *
                                                    kGemmN));
  runtime::ComputeContext::set_global_threads(prior);
}
BENCHMARK(BM_GemmBlocked)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Conv2dForwardBatch(benchmark::State& state) {
  const std::size_t prior = runtime::ComputeContext::global().slot_count();
  runtime::ComputeContext::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  util::Rng rng(6);
  nn::Conv2d conv(3, 8, 7, 2, 0);
  conv.init_he(rng);
  tensor::Tensor input(tensor::Shape{8, 3, 96, 96});
  input.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    const auto out = conv.infer(input, runtime::thread_scratch());
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
  runtime::ComputeContext::set_global_threads(prior);
}
BENCHMARK(BM_Conv2dForwardBatch)->Arg(1)->Arg(4);

// ------------------------------------------------- dense fast path
// ReliableLinear's fault-free path through the public API: the dense
// layer runs as a 1 x in conv on the channel-lane kernel, fanned across
// the pool. Args are (out, in, threads); items/sec reads as MACs.
void BM_LinearReference(benchmark::State& state) {
  const std::size_t prior = runtime::ComputeContext::global().slot_count();
  const auto out_n = static_cast<std::size_t>(state.range(0));
  const auto in_n = static_cast<std::size_t>(state.range(1));
  runtime::ComputeContext::set_global_threads(
      static_cast<std::size_t>(state.range(2)));
  util::Rng rng(7);
  tensor::Tensor weights(tensor::Shape{out_n, in_n});
  weights.fill_normal(rng, 0.0f, 0.1f);
  tensor::Tensor bias(tensor::Shape{out_n});
  bias.fill_normal(rng, 0.0f, 0.1f);
  tensor::Tensor input(tensor::Shape{in_n});
  input.fill_normal(rng, 0.0f, 1.0f);
  const reliable::ReliableLinear linear(std::move(weights), std::move(bias));
  for (auto _ : state) {
    const auto out = linear.reference_forward(input);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out_n * in_n));
  runtime::ComputeContext::set_global_threads(prior);
}
BENCHMARK(BM_LinearReference)
    ->Args({128, 1024, 1})
    ->Args({128, 1024, 4})
    ->Args({1024, 4096, 1})
    ->Args({1024, 4096, 4});

void BM_SaxWord(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<double> series(360);
  for (auto& v : series) v = rng.normal(10.0, 1.0);
  const sax::SaxConfig cfg{32, 8};
  for (auto _ : state) {
    const std::string w = sax_word(series, cfg);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_SaxWord);

}  // namespace
