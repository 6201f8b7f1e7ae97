/**
 * @file
 * The design catalog: every design the repository ships, at its paper
 * size (Table 2 data sizes: ellpack n=494 m=10, stencil-2d img=128^2
 * f=3^2, radix n=2048 m=16, kmp n=32000 m=4, merge n=2048). The figure
 * binaries build their designs from here, and the tape generator
 * (sim/tapegen.cc) compiles the event tape of every catalog design
 * ahead of time (docs/architecture.md "Compiled evaluators"), so a
 * design added here is one the event engine runs as compiled code.
 */
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/hls.h"
#include "designs/accel.h"
#include "designs/priority_queue.h"
#include "designs/systolic.h"

namespace assassyn {
namespace baseline {

/** One accelerator workload: its Assassyn and HLS builders. */
struct AccelPair {
    std::string name;
    std::function<designs::AccelDesign()> assassyn;
    std::function<HlsDesign()> hls;
};

/** The five Table-2 accelerators at paper data sizes. */
std::vector<AccelPair> paperAccels();

/**
 * The fft workload appears only in the paper's Fig. 14 area comparison,
 * so it is kept out of paperAccels() (whose order mirrors Fig. 15b).
 */
AccelPair paperFft();

/** A representative priority-queue run (II = 1, 8 slots). */
designs::PqDesign paperPq();

/** A 4x4 systolic matmul. */
designs::SystolicDesign paperSystolic();

/** One catalog design: its name and a builder of its lowered System. */
struct CatalogDesign {
    std::string name;
    std::function<std::unique_ptr<System>()> build;
};

/**
 * Every shipped design at paper size: the in-order core under each
 * BranchPolicy (cpu.base, cpu.bp.f, cpu.bp.t) and the OoO core (ooo),
 * both over a Sodor workload image; the grader's two cores (grader.cpu,
 * grader.ooo) over the corpus's 256-word memory; the six Assassyn-native
 * accelerators (accel.*) and their HLS-generated counterparts (hls.*);
 * the priority queue (pq) and the systolic array (systolic).
 */
std::vector<CatalogDesign> designCatalog();

} // namespace baseline
} // namespace assassyn
