#include "core/composite_polluter.h"

namespace icewafl {

CompositePolluter::CompositePolluter(std::string label, ConditionPtr condition)
    : Polluter(std::move(label)), condition_(std::move(condition)), rng_(0) {}

void CompositePolluter::Register(PolluterPtr child) {
  children_.push_back(std::move(child));
}

Status CompositePolluter::Bind(BindContext& ctx) {
  bound_schema_ = nullptr;
  {
    BindContext::Scope condition_scope(ctx, "condition");
    ICEWAFL_RETURN_NOT_OK(condition_->Bind(ctx));
  }
  {
    BindContext::Scope children_scope(ctx, "children");
    for (size_t i = 0; i < children_.size(); ++i) {
      BindContext::Scope index_scope(ctx, i);
      ICEWAFL_RETURN_NOT_OK(children_[i]->Bind(ctx));
    }
  }
  bound_schema_ = &ctx.schema();
  return Status::OK();
}

void CompositePolluter::Seed(Rng* parent) {
  rng_ = parent->Fork();
  for (const PolluterPtr& child : children_) child->Seed(&rng_);
}

void CompositePolluter::ResetStats() {
  Polluter::ResetStats();
  for (const PolluterPtr& child : children_) child->ResetStats();
}

Json CompositePolluter::ChildrenToJson() const {
  Json arr = Json::MakeArray();
  for (const PolluterPtr& child : children_) arr.Append(child->ToJson());
  return arr;
}

SequentialPolluter::SequentialPolluter(std::string label,
                                       ConditionPtr condition)
    : CompositePolluter(std::move(label), std::move(condition)) {}

Status SequentialPolluter::Pollute(Tuple* tuple, PollutionContext* ctx,
                                   PollutionLog* log) {
  ICEWAFL_RETURN_NOT_OK(EnsureBound(*tuple));
  Rng* const outer_rng = ctx->rng;
  ctx->rng = &rng_;
  const bool gate = condition_->Evaluate(*tuple, ctx);
  ctx->rng = outer_rng;
  if (!gate) return Status::OK();
  ++applied_count_;
  for (const PolluterPtr& child : children_) {
    ICEWAFL_RETURN_NOT_OK(child->Pollute(tuple, ctx, log));
  }
  return Status::OK();
}

Json SequentialPolluter::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "sequential");
  j.Set("label", label_);
  j.Set("condition", condition_->ToJson());
  j.Set("children", ChildrenToJson());
  return j;
}

PolluterPtr SequentialPolluter::Clone() const {
  auto clone =
      std::make_unique<SequentialPolluter>(label_, condition_->Clone());
  for (const PolluterPtr& child : children_) {
    clone->Register(child->Clone());
  }
  clone->bound_schema_ = bound_schema_;
  return clone;
}

ExclusivePolluter::ExclusivePolluter(std::string label, ConditionPtr condition)
    : CompositePolluter(std::move(label), std::move(condition)) {}

void ExclusivePolluter::RegisterWeighted(PolluterPtr child, double weight) {
  // Keep weights_ aligned with children_: pad any children registered via
  // the unweighted Register() with weight 1.
  while (weights_.size() < children_.size()) weights_.push_back(1.0);
  children_.push_back(std::move(child));
  weights_.push_back(weight);
}

double ExclusivePolluter::TotalWeight() const {
  double total = 0.0;
  for (size_t i = 0; i < children_.size(); ++i) {
    total += i < weights_.size() ? weights_[i] : 1.0;
  }
  return total;
}

Status ExclusivePolluter::Bind(BindContext& ctx) {
  if (!children_.empty() && TotalWeight() <= 0.0) {
    BindContext::Scope weights_scope(ctx, "weights");
    return ctx.Error(StatusCode::kInvalidArgument,
                     "exclusive polluter '" + label_ +
                         "': total child weight must be > 0");
  }
  return CompositePolluter::Bind(ctx);
}

Status ExclusivePolluter::Pollute(Tuple* tuple, PollutionContext* ctx,
                                  PollutionLog* log) {
  if (children_.empty()) return Status::OK();
  ICEWAFL_RETURN_NOT_OK(EnsureBound(*tuple));
  Rng* const outer_rng = ctx->rng;
  ctx->rng = &rng_;
  Status st = [&]() -> Status {
    if (!condition_->Evaluate(*tuple, ctx)) return Status::OK();
    ++applied_count_;
    // Weighted draw among children (unweighted children count as 1).
    const double total = TotalWeight();
    if (total <= 0.0) {
      return Status::InvalidArgument("exclusive polluter '" + label_ +
                                     "': total child weight must be > 0");
    }
    double pick = rng_.Uniform(0.0, total);
    size_t chosen = children_.size() - 1;
    for (size_t i = 0; i < children_.size(); ++i) {
      pick -= i < weights_.size() ? weights_[i] : 1.0;
      if (pick < 0.0) {
        chosen = i;
        break;
      }
    }
    return children_[chosen]->Pollute(tuple, ctx, log);
  }();
  ctx->rng = outer_rng;
  return st;
}

Json ExclusivePolluter::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "exclusive");
  j.Set("label", label_);
  j.Set("condition", condition_->ToJson());
  j.Set("children", ChildrenToJson());
  Json w = Json::MakeArray();
  for (size_t i = 0; i < children_.size(); ++i) {
    w.Append(Json(i < weights_.size() ? weights_[i] : 1.0));
  }
  j.Set("weights", std::move(w));
  return j;
}

PolluterPtr ExclusivePolluter::Clone() const {
  auto clone = std::make_unique<ExclusivePolluter>(label_, condition_->Clone());
  for (size_t i = 0; i < children_.size(); ++i) {
    clone->RegisterWeighted(children_[i]->Clone(),
                            i < weights_.size() ? weights_[i] : 1.0);
  }
  clone->bound_schema_ = bound_schema_;
  return clone;
}

}  // namespace icewafl
