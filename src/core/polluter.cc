#include "core/polluter.h"

namespace icewafl {

StandardPolluter::StandardPolluter(std::string label, ErrorFunctionPtr error,
                                   ConditionPtr condition,
                                   std::vector<std::string> attributes)
    : Polluter(std::move(label)),
      error_(std::move(error)),
      condition_(std::move(condition)),
      attributes_(std::move(attributes)),
      rng_(0) {}

Status StandardPolluter::Bind(BindContext& ctx) {
  bound_schema_ = nullptr;
  attr_indices_.clear();
  attr_indices_.reserve(attributes_.size());
  {
    BindContext::Scope attrs_scope(ctx, "attributes");
    for (size_t i = 0; i < attributes_.size(); ++i) {
      BindContext::Scope index_scope(ctx, i);
      ICEWAFL_ASSIGN_OR_RETURN(BoundAccessor accessor,
                               ctx.Resolve(attributes_[i]));
      attr_indices_.push_back(accessor.index());
    }
  }
  {
    BindContext::Scope error_scope(ctx, "error");
    ICEWAFL_RETURN_NOT_OK(error_->Bind(ctx, attr_indices_));
  }
  {
    BindContext::Scope condition_scope(ctx, "condition");
    ICEWAFL_RETURN_NOT_OK(condition_->Bind(ctx));
  }
  bound_schema_ = &ctx.schema();
  return Status::OK();
}

Status StandardPolluter::Pollute(Tuple* tuple, PollutionContext* ctx,
                                 PollutionLog* log) {
  ICEWAFL_RETURN_NOT_OK(EnsureBound(*tuple));
  Rng* const outer_rng = ctx->rng;
  ctx->rng = &rng_;
  // Stateful errors watch the full stream regardless of the condition.
  error_->Observe(*tuple, attr_indices_);
  if (condition_->Evaluate(*tuple, ctx)) {
    error_->Apply(tuple, attr_indices_, ctx);
    ++applied_count_;
    if (log != nullptr) {
      PollutionLogEntry entry;
      entry.tuple_id = tuple->id();
      entry.substream = tuple->substream();
      entry.polluter = label_;
      entry.error_type = error_->name();
      entry.attributes = attributes_;
      entry.tau = ctx->tau;
      log->Record(std::move(entry));
    }
  }
  ctx->rng = outer_rng;
  return Status::OK();
}

void StandardPolluter::Seed(Rng* parent) { rng_ = parent->Fork(); }

Json StandardPolluter::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "standard");
  j.Set("label", label_);
  j.Set("error", error_->ToJson());
  j.Set("condition", condition_->ToJson());
  Json attrs = Json::MakeArray();
  for (const std::string& a : attributes_) attrs.Append(Json(a));
  j.Set("attributes", std::move(attrs));
  return j;
}

PolluterPtr StandardPolluter::Clone() const {
  auto clone = std::make_unique<StandardPolluter>(
      label_, error_->Clone(), condition_->Clone(), attributes_);
  // Clones share the immutable bound plan (condition Clone already
  // preserves its accessors); only RNG/statistics state starts fresh.
  clone->bound_schema_ = bound_schema_;
  clone->attr_indices_ = attr_indices_;
  return clone;
}

}  // namespace icewafl
