#include "train/trainer.hpp"

#include "attacks/attack.hpp"
#include "train/evaluate.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace ibrar::train {

Trainer::Trainer(models::TapClassifierPtr model, ObjectivePtr objective,
                 TrainConfig cfg)
    : model_(std::move(model)), objective_(std::move(objective)), cfg_(cfg) {
  opt_ = std::make_unique<SGD>(
      model_->parameters(),
      SGD::Config{cfg_.lr, cfg_.momentum, cfg_.weight_decay});
}

std::vector<EpochStats> Trainer::fit(const data::Dataset& train,
                                     const data::Dataset* test,
                                     attacks::Attack* eval_attack,
                                     std::int64_t eval_adv_samples) {
  data::DataLoader loader(train, cfg_.batch_size, /*shuffle=*/true,
                          Rng(cfg_.seed));
  StepLR sched(*opt_, cfg_.lr_step, cfg_.lr_gamma);

  std::vector<EpochStats> history;
  for (std::int64_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    Stopwatch sw;
    model_->set_training(true);
    loader.begin_epoch();

    double loss_sum = 0.0;
    std::int64_t batches = 0;
    std::int64_t correct = 0, seen = 0;
    data::Batch batch;
    std::int64_t batch_idx = 0;
    while (loader.next(batch)) {
      ag::Var loss = objective_->compute(*model_, batch);
      // Adversarial objectives run inner attacks before the loss graph; any
      // stray gradient accumulation is discarded here.
      opt_->zero_grad();
      loss.backward();
      opt_->step();
      loss_sum += loss.value().item();
      ++batches;

      {
        // Track train accuracy on the fly (cheap forward reuse is not
        // possible for AT objectives, so sample a prediction pass).
        const auto pred = attacks::predict(*model_, batch.x);
        for (std::size_t i = 0; i < pred.size(); ++i) {
          correct += pred[i] == batch.y[i] ? 1 : 0;
        }
        seen += batch.size();
      }
      if (batch_hook) batch_hook(epoch, batch_idx, *model_, batch);
      ++batch_idx;
    }
    sched.epoch_end();
    if (epoch_hook) epoch_hook(epoch, *model_);

    EpochStats s;
    s.epoch = epoch;
    s.mean_loss = batches > 0 ? loss_sum / batches : 0.0;
    s.train_acc = seen > 0 ? static_cast<double>(correct) / seen : 0.0;
    if (test != nullptr) {
      // Clean accuracy covers the whole test set and the attack only
      // eval_adv_samples of it, so they are two sweeps.
      const std::vector<attacks::Attack*> no_attacks;
      s.test_acc =
          evaluate_robust(*model_, *test, no_attacks, {cfg_.batch_size, -1})
              .clean_acc;
      if (eval_attack != nullptr) {
        s.adv_acc = evaluate_robust(*model_, *test, {eval_attack},
                                    {cfg_.batch_size, eval_adv_samples,
                                     /*with_clean=*/false})
                        .per_attack.front()
                        .robust_acc;
      }
    }
    s.seconds = sw.seconds();
    history.push_back(s);
    if (cfg_.verbose) {
      logging::info(objective_->name(), " epoch ", epoch, " loss=", s.mean_loss,
                " train_acc=", s.train_acc, " test_acc=", s.test_acc,
                " adv_acc=", s.adv_acc, " (", s.seconds, "s)");
    }
  }
  model_->set_training(false);
  return history;
}

}  // namespace ibrar::train
