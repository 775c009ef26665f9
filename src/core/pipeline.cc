#include "core/pipeline.h"

#include <algorithm>

#include "core/composite_polluter.h"

namespace icewafl {

namespace {

const char* DomainName(ErrorDomain domain) {
  switch (domain) {
    case ErrorDomain::kAnyValue:
      return "any";
    case ErrorDomain::kNumeric:
      return "numeric";
    case ErrorDomain::kString:
      return "string";
    case ErrorDomain::kMetadata:
      return "metadata";
  }
  return "any";
}

/// Recursive activation-count publisher; composites contribute their
/// gate-fire count and recurse into their children.
void PublishPolluter(const Polluter& polluter, const std::string& pipeline,
                     obs::MetricRegistry* registry) {
  std::string error = "composite";
  std::string domain = "any";
  if (const auto* standard = dynamic_cast<const StandardPolluter*>(&polluter);
      standard != nullptr) {
    error = standard->error().name();
    domain = DomainName(standard->error().Describe().domain);
  } else if (dynamic_cast<const SequentialPolluter*>(&polluter) != nullptr) {
    error = "composite_sequential";
  } else if (dynamic_cast<const ExclusivePolluter*>(&polluter) != nullptr) {
    error = "composite_exclusive";
  }
  obs::Counter* counter = registry->GetCounter(
      "icewafl_polluter_applied_total",
      {{"pipeline", pipeline},
       {"polluter", polluter.label()},
       {"error", error},
       {"domain", domain}},
      "Activations per polluter (composite gates count gate fires)");
  if (counter != nullptr) counter->Increment(polluter.applied_count());
  if (const auto* composite = dynamic_cast<const CompositePolluter*>(&polluter);
      composite != nullptr) {
    for (const PolluterPtr& child : composite->children()) {
      PublishPolluter(*child, pipeline, registry);
    }
  }
}

/// The most `polluter` can postpone one tuple's arrival.
int64_t PolluterDelay(const Polluter& polluter) {
  if (const auto* standard = dynamic_cast<const StandardPolluter*>(&polluter)) {
    return std::max<int64_t>(standard->error().Describe().max_delay_seconds, 0);
  }
  int64_t total = 0;
  if (const auto* composite =
          dynamic_cast<const CompositePolluter*>(&polluter)) {
    for (const PolluterPtr& c : composite->children()) {
      total += PolluterDelay(*c);
    }
  }
  return total;
}

}  // namespace

int64_t PollutionPipeline::MaxArrivalDelay() const {
  int64_t total = 0;
  for (const PolluterPtr& p : polluters_) total += PolluterDelay(*p);
  return total;
}

void PollutionPipeline::Seed(uint64_t seed) {
  Rng master(seed);
  for (const PolluterPtr& p : polluters_) p->Seed(&master);
}

Status PollutionPipeline::Bind(SchemaPtr schema, Diagnostics* diags) {
  if (schema == nullptr) {
    return Status::InvalidArgument("pipeline '" + name_ +
                                   "': cannot bind to a null schema");
  }
  for (size_t i = 0; i < polluters_.size(); ++i) {
    BindContext ctx(*schema, "/polluters/" + std::to_string(i));
    Status status = polluters_[i]->Bind(ctx);
    if (!status.ok()) {
      if (diags != nullptr) {
        diags->AddError("IW100", ctx.error_path(), ctx.error_message());
      }
      return status;
    }
  }
  bound_schema_ = std::move(schema);
  return Status::OK();
}

Status PollutionPipeline::Apply(Tuple* tuple, PollutionContext* ctx,
                                PollutionLog* log) const {
  for (const PolluterPtr& p : polluters_) {
    ICEWAFL_RETURN_NOT_OK(p->Pollute(tuple, ctx, log));
  }
  return Status::OK();
}

void PollutionPipeline::ResetStats() {
  for (const PolluterPtr& p : polluters_) p->ResetStats();
}

uint64_t PollutionPipeline::TotalAppliedCount() const {
  uint64_t total = 0;
  for (const PolluterPtr& p : polluters_) total += p->applied_count();
  return total;
}

void PollutionPipeline::PublishMetrics(obs::MetricRegistry* registry) const {
  if (registry == nullptr) return;
  for (const PolluterPtr& p : polluters_) {
    PublishPolluter(*p, name_, registry);
  }
}

PollutionPipeline PollutionPipeline::Clone() const {
  PollutionPipeline clone(name_);
  for (const PolluterPtr& p : polluters_) clone.Add(p->Clone());
  // Worker clones share the immutable bound plan: polluter clones carry
  // their resolved indices, and the shared_ptr keeps the schema alive.
  clone.bound_schema_ = bound_schema_;
  return clone;
}

Json PollutionPipeline::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("name", name_);
  Json arr = Json::MakeArray();
  for (const PolluterPtr& p : polluters_) arr.Append(p->ToJson());
  j.Set("polluters", std::move(arr));
  return j;
}

}  // namespace icewafl
