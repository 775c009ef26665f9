#include "core/derived_error.h"

namespace icewafl {

DerivedTemporalError::DerivedTemporalError(ErrorFunctionPtr base,
                                           TimeProfilePtr profile)
    : base_(std::move(base)), profile_(std::move(profile)) {}

Status DerivedTemporalError::Bind(BindContext& ctx,
                                  const std::vector<size_t>& attrs) {
  // Delegate to the wrapped static error under its config field, so a
  // bind error names /.../error/base; the profile has no schema
  // dependency (it reads only the tuple's event time via the context).
  BindContext::Scope scope(ctx, "base");
  return base_->Bind(ctx, attrs);
}

void DerivedTemporalError::Apply(Tuple* tuple,
                                 const std::vector<size_t>& attrs,
                                 PollutionContext* ctx) {
  const double outer = ctx->severity;
  ctx->severity = outer * profile_->Evaluate(*ctx);
  base_->Apply(tuple, attrs, ctx);
  ctx->severity = outer;
}

void DerivedTemporalError::Observe(const Tuple& tuple,
                                   const std::vector<size_t>& attrs) {
  base_->Observe(tuple, attrs);
}

std::string DerivedTemporalError::name() const {
  return base_->name() + "@" + profile_->name();
}

ErrorTraits DerivedTemporalError::Describe() const {
  ErrorTraits traits = base_->Describe();
  traits.uses_rng = true;
  return traits;
}

Json DerivedTemporalError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "derived");
  j.Set("base", base_->ToJson());
  j.Set("profile", profile_->ToJson());
  return j;
}

ErrorFunctionPtr DerivedTemporalError::Clone() const {
  return std::make_unique<DerivedTemporalError>(base_->Clone(),
                                                profile_->Clone());
}

}  // namespace icewafl
