// Sunway substrate tests: CPE-cluster kernels against their serial oracles,
// LDM budget enforcement, DMA accounting, and machine-model properties
// (collective costs, roofline, strong/weak-scaling shapes).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd_reference.hpp"
#include "swsim/kernels.hpp"
#include "swsim/machine_model.hpp"

namespace q2::sw {
namespace {

la::CMatrix random_matrix(std::size_t m, std::size_t n, Rng& rng) {
  la::CMatrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.complex_normal();
  return a;
}

TEST(CpeCluster, SpawnRunsEveryCpe) {
  CpeCluster cluster;
  std::vector<std::atomic<int>> hits(64);
  SpawnConfig cfg;
  cluster.spawn(cfg, [&](CpeContext& ctx) {
    hits[std::size_t(ctx.cpe_id())].fetch_add(1);
    EXPECT_EQ(ctx.row(), ctx.cpe_id() / 8);
    EXPECT_EQ(ctx.col(), ctx.cpe_id() % 8);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(CpeCluster, LdmBudgetEnforced) {
  CpeCluster cluster;
  SpawnConfig cfg;
  cfg.num_cpes = 1;
  cfg.ldm_bytes = 1024;
  EXPECT_THROW(cluster.spawn(cfg,
                             [&](CpeContext& ctx) {
                               ctx.ldm_alloc<cplx>(1000);  // 16 KB > 1 KB
                             }),
               Error);
}

TEST(CpeCluster, DmaOutsideLdmRejected) {
  CpeCluster cluster;
  SpawnConfig cfg;
  cfg.num_cpes = 1;
  std::vector<cplx> main_mem(10);
  EXPECT_THROW(cluster.spawn(cfg,
                             [&](CpeContext& ctx) {
                               // dst is main memory, not LDM: invalid get.
                               ctx.dma_get(main_mem.data(), main_mem.data(),
                                           10 * sizeof(cplx));
                             }),
               Error);
}

TEST(CpeCluster, DmaCountersAccumulate) {
  CpeCluster cluster;
  cluster.reset_counters();
  SpawnConfig cfg;
  cfg.num_cpes = 4;
  std::vector<cplx> src(8, cplx{1, 0});
  cluster.spawn(cfg, [&](CpeContext& ctx) {
    cplx* buf = ctx.ldm_alloc<cplx>(8);
    ctx.dma_get(buf, src.data(), 8 * sizeof(cplx));
  });
  const DmaCounters c = cluster.counters();
  EXPECT_EQ(c.bytes_in, 4u * 8 * sizeof(cplx));
  EXPECT_EQ(c.transfers, 4u);
}

TEST(Kernels, GemmCpeMatchesSerial) {
  CpeCluster cluster;
  Rng rng(7);
  for (auto [m, k, n] : {std::array<std::size_t, 3>{16, 16, 16},
                         std::array<std::size_t, 3>{33, 17, 25},
                         std::array<std::size_t, 3>{70, 40, 55}}) {
    const la::CMatrix a = random_matrix(m, k, rng);
    const la::CMatrix b = random_matrix(k, n, rng);
    const la::CMatrix expect = la::matmul(a, b);
    const la::CMatrix got = gemm_cpe(cluster, a, b);
    EXPECT_LT((got - expect).frobenius_norm(), 1e-9)
        << m << "x" << k << "x" << n;
  }
}

TEST(Kernels, GemmCpeGeneratesDmaTraffic) {
  CpeCluster cluster;
  cluster.reset_counters();
  Rng rng(8);
  const la::CMatrix a = random_matrix(32, 32, rng);
  const la::CMatrix b = random_matrix(32, 32, rng);
  gemm_cpe(cluster, a, b);
  const DmaCounters c = cluster.counters();
  EXPECT_GT(c.bytes_in, 2 * 32 * 32 * sizeof(cplx) - 1);   // A and B staged
  EXPECT_GE(c.bytes_out, 32 * 32 * sizeof(cplx));          // C written back
}

TEST(Kernels, SvdCpeMatchesSerialSingularValues) {
  CpeCluster cluster;
  Rng rng(9);
  for (auto [m, n] : {std::array<std::size_t, 2>{12, 12},
                      std::array<std::size_t, 2>{24, 9},
                      std::array<std::size_t, 2>{9, 24}}) {
    const la::CMatrix a = random_matrix(m, n, rng);
    // The frozen scalar oracle: svd_cpe and svd_jacobi share
    // tournament_rounds, so only the reference is independent of both.
    const la::SvdResult serial = la::svd_jacobi_reference(a);
    const la::SvdResult par = svd_cpe(cluster, a);
    ASSERT_EQ(serial.s.size(), par.s.size());
    for (std::size_t i = 0; i < serial.s.size(); ++i)
      EXPECT_NEAR(par.s[i], serial.s[i], 1e-8 * (1 + serial.s[0]));
    // Reconstruction check for the parallel factors.
    la::CMatrix us = par.u;
    for (std::size_t i = 0; i < us.rows(); ++i)
      for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= par.s[j];
    EXPECT_LT((la::matmul(us, par.vh) - a).frobenius_norm(), 1e-8);
  }
}

TEST(MachineModel, CollectiveCostsGrowLogarithmically) {
  const MachineModel model;
  const double t1k = model.bcast_time(15.6e3, 1024);
  const double t1m = model.bcast_time(15.6e3, 1 << 20);
  EXPECT_GT(t1m, t1k);
  EXPECT_LT(t1m, 3 * t1k);  // log growth, not linear
  EXPECT_DOUBLE_EQ(model.bcast_time(1e6, 1), 0.0);
}

TEST(MachineModel, RooflineKernelTime) {
  const MachineModel model;
  // Compute-bound: lots of flops, few bytes.
  const double tc = model.cpe_kernel_time(1e12, 1e3, 64, 0.75);
  // Bandwidth-bound: few flops, many bytes.
  const double tb = model.cpe_kernel_time(1e3, 1e12, 64, 0.75);
  EXPECT_GT(tc, 1.0);
  EXPECT_GT(tb, 1.0);
  // More CPEs help compute-bound kernels only.
  EXPECT_LT(model.cpe_kernel_time(1e12, 1e3, 64, 0.75),
            model.cpe_kernel_time(1e12, 1e3, 8, 0.75));
  EXPECT_NEAR(model.cpe_kernel_time(1e3, 1e12, 64, 0.75),
              model.cpe_kernel_time(1e3, 1e12, 8, 0.75), 1e-9);
}

TEST(MachineModel, FragmentIterationUsesLpt) {
  const MachineModel model;
  CircuitWorkload w;
  w.circuit_costs_s = {8, 1, 1, 1, 1, 1, 1, 1, 1};
  // With 2 ranks LPT puts the 8 alone: makespan 8 + comm.
  const double t = model.fragment_iteration_time(w, 2);
  EXPECT_GE(t, 8.0);
  EXPECT_LT(t, 8.1);
}

TEST(MachineModel, StrongScalingShape) {
  // Paper Fig. 12 regime: 640 fragments, groups of 2048 processes,
  // 10240 -> 327680 processes, efficiency must stay above 90 %.
  const MachineModel model;
  DmetWorkload w;
  w.n_fragments = 640;
  w.procs_per_group = 2048;
  w.fragment = hydrogen_fragment_workload(4, 64, 1e-9, 1);
  const std::vector<long> procs = {10240, 20480, 40960, 81920, 163840, 327680};
  const auto pts = model.strong_scaling(w, procs);
  ASSERT_EQ(pts.size(), procs.size());
  EXPECT_NEAR(pts[0].speedup, 1.0, 1e-12);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].speedup, pts[i - 1].speedup);
    EXPECT_GT(pts[i].efficiency, 0.9);
    EXPECT_LE(pts[i].efficiency, 1.0 + 1e-9);
  }
  EXPECT_GT(pts.back().speedup, 25.0);  // paper reports 30x of ideal 32x
  EXPECT_EQ(pts.back().cores, 327680l * 65);
}

TEST(MachineModel, WeakScalingShape) {
  const MachineModel model;
  std::vector<DmetWorkload> ws;
  std::vector<long> procs;
  for (long p : {10240l, 20480l, 81920l, 327680l}) {
    DmetWorkload w;
    w.procs_per_group = 2048;
    w.n_fragments = std::size_t(p / 2048) * 4;  // work grows with machine
    w.fragment = hydrogen_fragment_workload(4, 64, 1e-9, 2);
    ws.push_back(w);
    procs.push_back(p);
  }
  const auto pts = model.weak_scaling(ws, procs);
  for (const auto& p : pts) {
    EXPECT_GT(p.efficiency, 0.85);
    EXPECT_LE(p.efficiency, 1.0 + 1e-9);
  }
}

TEST(MachineModel, WorkloadGeneratorScalesWithQubits) {
  const CircuitWorkload small = hydrogen_fragment_workload(4, 16, 1e-9, 3);
  const CircuitWorkload large = hydrogen_fragment_workload(8, 16, 1e-9, 3);
  EXPECT_GT(large.circuit_costs_s.size(), small.circuit_costs_s.size());
}

}  // namespace
}  // namespace q2::sw
