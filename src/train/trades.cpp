#include "train/trades.hpp"

#include "attacks/engine.hpp"
#include "tensor/reduce.hpp"

namespace ibrar::train {

Tensor TRADESObjective::kl_pgd(models::TapClassifier& model, const Tensor& x,
                               const std::vector<std::int64_t>& y,
                               const Tensor& p_clean) {
  // The inner maximization is an engine composition: Gaussian init (TRADES
  // initializes with small noise rather than uniform), KL-vs-clean loss,
  // sign steps in the eps-ball. rng_ persists across batches so a fixed seed
  // reproduces the whole training run.
  namespace eng = attacks::engine;
  eng::Spec spec;
  spec.init = eng::Init::kGaussian;
  spec.init_sigma = 1e-3f;
  spec.loss = eng::kl_vs_clean_loss(p_clean);
  spec.step = eng::Step::kSign;
  return eng::run(model, x, y, inner_, spec, rng_);
}

ag::Var TRADESObjective::compute(models::TapClassifier& model,
                                 const data::Batch& batch) {
  // Clean distribution for the inner maximization (fixed target).
  Tensor p_clean;
  {
    ag::NoGradGuard ng;
    p_clean =
        softmax_rows(model.eval_forward(ag::Var::constant(batch.x)).value());
  }
  const Tensor adv = kl_pgd(model, batch.x, batch.y, p_clean);

  // Outer loss: CE(clean) + beta * KL(p(clean) || p(adv)); gradients flow
  // through both forward passes.
  ag::Var logits_clean = model.forward(ag::Var::constant(batch.x));
  ag::Var loss_nat = ag::cross_entropy(logits_clean, batch.y);
  ag::Var p_clean_var = ag::softmax(logits_clean);
  ag::Var log_p_adv = ag::log_softmax(model.forward(ag::Var::constant(adv)));
  ag::Var robust = ag::kl_div(p_clean_var, log_p_adv);
  return ag::add(loss_nat, ag::mul_scalar(robust, beta_));
}

}  // namespace ibrar::train
