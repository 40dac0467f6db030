#pragma once
// Umbrella header for the IB-RAR training and attack library.
//
//   #include "ibrar.hpp"
//
// pulls in the runtime, utilities, numerics, autograd, models, data, MI,
// attacks, training and IB-RAR core headers. The serving (serve/),
// observability (obs/) and figure-analysis (analysis/) subsystems are not
// included; include their headers directly. Individual headers also remain
// includable for faster incremental builds.

// Parallel execution runtime
#include "runtime/parallel_for.hpp"  // deterministic parallel_for / reduce
#include "runtime/thread_pool.hpp"   // global pool, IBRAR_NUM_THREADS

// Utilities
#include "util/env.hpp"        // profile switches & typed env access
#include "util/logging.hpp"    // leveled stderr logging
#include "util/rng.hpp"        // deterministic RNG
#include "util/serialize.hpp"  // checkpoint format
#include "util/stopwatch.hpp"
#include "util/table.hpp"      // aligned ASCII tables

// Numerics
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/reduce.hpp"
#include "tensor/tensor.hpp"

// Autograd
#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "autograd/var.hpp"

// Neural networks & models
#include "models/classifier.hpp"
#include "models/mlp.hpp"
#include "models/registry.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "models/wideresnet.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

// Data
#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "data/registry.hpp"
#include "data/synthetic.hpp"

// Mutual information machinery
#include "mi/channel_score.hpp"
#include "mi/hsic.hpp"
#include "mi/kernels.hpp"
#include "mi/objective.hpp"
#include "mi/tsne.hpp"

// Attacks
#include "attacks/adaptive.hpp"
#include "attacks/attack.hpp"
#include "attacks/cw.hpp"
#include "attacks/fab.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/mifgsm.hpp"
#include "attacks/nifgsm.hpp"
#include "attacks/pgd.hpp"
#include "attacks/square.hpp"

// Training
#include "train/evaluate.hpp"
#include "train/hbar.hpp"
#include "train/mart.hpp"
#include "train/metrics.hpp"
#include "train/objective.hpp"
#include "train/optimizer.hpp"
#include "train/trades.hpp"
#include "train/trainer.hpp"
#include "train/vib.hpp"

// IB-RAR (the paper's contribution)
#include "core/feature_mask.hpp"
#include "core/ibrar.hpp"
#include "core/mi_loss.hpp"
#include "core/robust_layers.hpp"
