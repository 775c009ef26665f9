#ifndef ICEWAFL_CORE_COMPOSITE_POLLUTER_H_
#define ICEWAFL_CORE_COMPOSITE_POLLUTER_H_

#include <string>
#include <vector>

#include "core/polluter.h"

namespace icewafl {

/// \brief Base for polluters that structure the pipeline by delegating to
/// registered child polluters (Section 2.2.1).
///
/// The composite's own condition acts as a shared gate: children are only
/// consulted when it fires, which is how scenarios like the software
/// update (several error types occurring together after one date) are
/// modeled. Children keep their own conditions, enabling nesting of
/// arbitrary depth.
class CompositePolluter : public Polluter {
 public:
  CompositePolluter(std::string label, ConditionPtr condition);

  /// \brief Registers a child; children execute in registration order.
  void Register(PolluterPtr child);

  size_t num_children() const { return children_.size(); }
  const std::vector<PolluterPtr>& children() const { return children_; }

  /// \brief Binds the gate condition (at "condition") and recurses into
  /// the children (at "children/<i>").
  Status Bind(BindContext& ctx) override;

  void Seed(Rng* parent) override;
  void ResetStats() override;

 protected:
  Json ChildrenToJson() const;

  ConditionPtr condition_;
  std::vector<PolluterPtr> children_;
  Rng rng_;
};

/// \brief Runs all children in sequence when the gate condition fires
/// (errors that occur together; children may chain on each other's
/// output, like the BPM "set to 0, then maybe to null" pair).
class SequentialPolluter : public CompositePolluter {
 public:
  SequentialPolluter(std::string label, ConditionPtr condition);

  Status Pollute(Tuple* tuple, PollutionContext* ctx,
                 PollutionLog* log) override;
  Json ToJson() const override;
  PolluterPtr Clone() const override;
};

/// \brief Runs exactly one child, drawn by weight, when the gate fires
/// (mutually exclusive error types).
class ExclusivePolluter : public CompositePolluter {
 public:
  /// Children registered via Register() get weight 1; use RegisterWeighted
  /// for non-uniform choice.
  ExclusivePolluter(std::string label, ConditionPtr condition);

  void RegisterWeighted(PolluterPtr child, double weight);

  /// \brief Additionally rejects a non-positive total child weight.
  Status Bind(BindContext& ctx) override;

  Status Pollute(Tuple* tuple, PollutionContext* ctx,
                 PollutionLog* log) override;
  Json ToJson() const override;
  PolluterPtr Clone() const override;

 private:
  double TotalWeight() const;

  std::vector<double> weights_;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_COMPOSITE_POLLUTER_H_
