#include "serve/model_registry.hpp"

#include <stdexcept>
#include <utility>

#include "nn/module.hpp"

namespace ibrar::serve {

std::uint64_t ModelRegistry::publish(models::TapClassifierPtr model,
                                     Shape input_shape, std::string tag,
                                     bool prepack) {
  if (!model) throw std::invalid_argument("ModelRegistry::publish: null model");
  if (input_shape.size() != 3) {
    throw std::invalid_argument(
        "ModelRegistry::publish: input_shape must be (C, H, W), got " +
        shape_str(input_shape));
  }
  model->set_training(false);
  auto snap = std::make_shared<ModelSnapshot>();
  // Snapshot-time lowering and weight prepack, off to the side of the swap.
  if (prepack) snap->plan = model->lower();
  snap->model = std::move(model);
  snap->tag = std::move(tag);
  snap->input_shape = std::move(input_shape);
  snap->num_classes = snap->model->num_classes();
  std::shared_ptr<const ModelSnapshot> old;  // released after the lock
  std::lock_guard<std::mutex> lock(mu_);
  snap->version = current_ ? current_->version + 1 : 1;
  old = std::exchange(current_, std::move(snap));
  return current_->version;
}

std::uint64_t ModelRegistry::publish_checkpoint(const models::ModelSpec& spec,
                                                const std::string& path,
                                                std::string tag) {
  // Build + load happen entirely off to the side; the swap at the end is the
  // only point the serving path can observe. A throw here (missing file,
  // architecture mismatch) leaves the previous version serving.
  Rng rng(0);  // init weights are fully overwritten by the checkpoint
  auto model = models::make_model(spec, rng);
  nn::load_model(*model, path);
  return publish(std::move(model),
                 {spec.in_channels, spec.image_size, spec.image_size},
                 tag.empty() ? path : std::move(tag));
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace ibrar::serve
