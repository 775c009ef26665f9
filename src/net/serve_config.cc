#include "net/serve_config.h"

#include <algorithm>
#include <set>

#include "clean/config.h"
#include "net/wire.h"
#include "util/strings.h"

namespace icewafl {
namespace net {

namespace {

/// "one of: a, b, c", or "" when the vocabulary is empty.
std::string OneOf(const std::vector<std::string>& names) {
  return names.empty() ? "" : "one of: " + Join(names, ", ");
}

bool HasControlCharacter(const std::string& text) {
  return std::any_of(text.begin(), text.end(), [](char c) {
    const auto byte = static_cast<unsigned char>(c);
    return byte < 0x20 || byte == 0x7f;
  });
}

/// The session name (IW607 / IW615); "" after reporting, so a broken
/// name is never also reported as a duplicate.
std::string SessionName(const Json& entry, const std::string& at,
                        const std::string& scenario, Diagnostics* d) {
  if (!entry.Has("name")) return scenario;
  const Json name = entry.Get("name").ValueOrDie();
  const std::string path = at + "/name";
  if (!name.is_string()) {
    d->AddError("IW607", path, "session name must be a string");
  } else if (name.AsString().empty()) {
    d->AddError("IW607", path, "session name must not be empty");
  } else if (name.AsString().size() > kMaxSessionIdBytes) {
    d->AddError("IW607", path,
                "session name of " + std::to_string(name.AsString().size()) +
                    " bytes exceeds the " +
                    std::to_string(kMaxSessionIdBytes) +
                    "-byte wire limit");
  } else if (HasControlCharacter(name.AsString())) {
    // Names travel in wire frames, metric labels, and log lines.
    d->AddError("IW615", path, "session name contains control characters",
                "names appear in wire frames and metric labels; use "
                "printable characters");
  } else {
    return name.AsString();
  }
  return "";
}

/// One sessions[] entry at `at`.
SessionConfig ParseSession(const Json& entry, const std::string& at,
                           const std::vector<std::string>& known_scenarios,
                           std::set<std::string>* names, Diagnostics* d) {
  SessionConfig session;
  const Json scenario =
      entry.Has("scenario") ? entry.Get("scenario").ValueOrDie() : Json();
  if (!scenario.is_string() || scenario.AsString().empty()) {
    d->AddError("IW605", at + "/scenario",
                entry.Has("scenario") ? "scenario must be a non-empty string"
                                      : "missing scenario name",
                OneOf(known_scenarios));
  } else {
    session.scenario = scenario.AsString();
    if (!known_scenarios.empty() &&
        std::find(known_scenarios.begin(), known_scenarios.end(),
                  session.scenario) == known_scenarios.end()) {
      d->AddError("IW605", at + "/scenario",
                  "unknown scenario '" + session.scenario + "'",
                  OneOf(known_scenarios));
    }
  }
  session.name = SessionName(entry, at, session.scenario, d);
  if (!session.name.empty() && !names->insert(session.name).second) {
    d->AddError("IW607", at + "/name",
                "duplicate session name '" + session.name + "'",
                "session names must be unique across entries");
  }
  ReadIntField<uint64_t>(entry, "seed", at, "IW606", 0, &session.seed, d);
  ReadIntField<int>(entry, "parallelism", at, "IW606", 1, &session.parallelism,
                    d);
  ReadIntField<int>(entry, "min_subscribers", at, "IW606", 1,
                    &session.min_subscribers, d);
  ReadIntField<uint64_t>(entry, "max_runs", at, "IW606", 0, &session.max_runs,
                         d);
  // A null cleaner means "no cleaner"; anything else is a cleaning
  // document, checked by its own loader (no schema here: the plan
  // builder binds it against the scenario's schema).
  if (entry.Has("cleaner")) {
    session.cleaner = entry.Get("cleaner").ValueOrDie();
    if (!session.cleaner.is_null()) {
      Diagnostics found;
      (void)clean::RulesFromJson(session.cleaner, nullptr, &found);
      d->Merge(found, at + "/cleaner");
    }
  }
  for (const auto& field : entry.fields()) {
    static const char* const kSessionKeys[] = {
        "name",        "scenario", "seed", "parallelism", "min_subscribers",
        "max_runs",    "cleaner"};
    if (std::find(std::begin(kSessionKeys), std::end(kSessionKeys),
                  field.first) == std::end(kSessionKeys)) {
      d->AddWarning("IW604", at + "/" + field.first,
                    "unknown session key '" + field.first + "'");
    }
  }
  return session;
}

const char kSessionsShape[] =
    "{\"sessions\": [{\"name\": ..., \"scenario\": ...}], \"port\": ...}";

void LoadServeConfig(const Json& json,
                     const std::vector<std::string>& known_scenarios,
                     ServeConfig* config, Diagnostics* d) {
  if (!json.is_object()) {
    d->AddError("IW608", "", "serve config must be a JSON object",
                std::string("expected ") + kSessionsShape);
    return;
  }
  if (json.Has("scenario")) {
    const Json scenario = json.Get("scenario").ValueOrDie();
    const std::string name =
        scenario.is_string() ? scenario.AsString() : "<name>";
    d->AddError("IW608", "/scenario",
                "a top-level \"scenario\" is the retired single-session "
                "shape",
                "use {\"sessions\": [{\"scenario\": \"" + name +
                    "\"}]}; seed, parallelism, min_subscribers and "
                    "max_runs go in the entry");
  }
  if (!json.Has("sessions")) {
    // A retired-shape document already carries its one IW608 above.
    if (!json.Has("scenario")) {
      d->AddError("IW608", "/sessions", "missing \"sessions\" array",
                  std::string("expected ") + kSessionsShape);
    }
  } else if (const Json sessions = json.Get("sessions").ValueOrDie();
             !sessions.is_array() || sessions.items().empty()) {
    d->AddError("IW608", "/sessions",
                "\"sessions\" must be a non-empty array");
  } else {
    std::set<std::string> names;
    for (size_t i = 0; i < sessions.items().size(); ++i) {
      const Json& entry = sessions.items()[i];
      const std::string at = "/sessions/" + std::to_string(i);
      if (!entry.is_object()) {
        d->AddError("IW608", at, "session entry must be an object");
        continue;
      }
      config->sessions.push_back(
          ParseSession(entry, at, known_scenarios, &names, d));
    }
  }

  ReadIntField<uint16_t>(json, "port", "", "IW601", 0, &config->port, d);
  uint16_t admin_port = 0;
  if (json.Has("admin_port") &&
      ReadIntField<uint16_t>(json, "admin_port", "", "IW601", 0, &admin_port,
                             d)) {
    config->admin_port = admin_port;
  }
  ReadIntField<int>(json, "workers", "", "IW609", 1, &config->workers, d);
  ReadIntField<size_t>(json, "queue_capacity", "", "IW603", 1,
                       &config->queue_capacity, d);
  if (json.Has("slow_consumer")) {
    const Json policy = json.Get("slow_consumer").ValueOrDie();
    const std::string hint = OneOf(SlowConsumerPolicyNames());
    if (!policy.is_string()) {
      d->AddError("IW602", "/slow_consumer", "slow_consumer must be a string",
                  hint);
    } else if (auto parsed = SlowConsumerPolicyFromName(policy.AsString());
               !parsed.ok()) {
      d->AddError("IW602", "/slow_consumer", parsed.status().message(), hint);
    } else {
      config->slow_consumer = parsed.ValueOrDie();
    }
  }
  ReadStringField(json, "host", "", "IW606", &config->host, d);
  // IW604: unknown keys are likely typos — including the per-session
  // knobs, which belong inside the entries.
  for (const auto& field : json.fields()) {
    static const char* const kServerKeys[] = {
        "sessions", "scenario",       "host",         "port",
        "admin_port", "workers",      "queue_capacity", "slow_consumer"};
    if (std::find(std::begin(kServerKeys), std::end(kServerKeys),
                  field.first) == std::end(kServerKeys)) {
      d->AddWarning("IW604", "/" + field.first,
                    "unknown serve config key '" + field.first + "'");
    }
  }
}

}  // namespace

SessionOptions SessionConfig::ToSessionOptions() const {
  SessionOptions options;
  options.min_subscribers = min_subscribers;
  options.max_runs = max_runs;
  return options;
}

Result<ServeConfig> ServeConfig::FromJson(
    const Json& json, const std::vector<std::string>& known_scenarios,
    Diagnostics* diags) {
  Diagnostics found;
  ServeConfig config;
  LoadServeConfig(json, known_scenarios, &config, &found);
  if (diags != nullptr) diags->Merge(found);
  if (found.HasErrors()) {
    return Status::InvalidArgument("serve config rejected:\n" +
                                   found.ToReport());
  }
  return config;
}

Json ServeConfig::ToJson() const {
  Json json = Json::MakeObject();
  Json entries = Json::MakeArray();
  for (const SessionConfig& session : sessions) {
    Json entry = Json::MakeObject();
    entry.Set("name", Json(session.name));
    entry.Set("scenario", Json(session.scenario));
    entry.Set("seed", Json(static_cast<double>(session.seed)));
    entry.Set("parallelism", Json(static_cast<int64_t>(session.parallelism)));
    entry.Set("min_subscribers",
              Json(static_cast<int64_t>(session.min_subscribers)));
    entry.Set("max_runs", Json(static_cast<double>(session.max_runs)));
    if (!session.cleaner.is_null()) entry.Set("cleaner", session.cleaner);
    entries.Append(std::move(entry));
  }
  json.Set("sessions", std::move(entries));
  json.Set("host", Json(host));
  json.Set("port", Json(static_cast<int64_t>(port)));
  if (admin_port >= 0) {
    json.Set("admin_port", Json(static_cast<int64_t>(admin_port)));
  }
  json.Set("workers", Json(static_cast<int64_t>(workers)));
  json.Set("queue_capacity", Json(static_cast<int64_t>(queue_capacity)));
  json.Set("slow_consumer",
           Json(std::string(SlowConsumerPolicyName(slow_consumer))));
  return json;
}

ServerOptions ServeConfig::ToServerOptions(
    obs::MetricRegistry* metrics) const {
  ServerOptions options;
  options.host = host;
  options.port = port;
  options.workers = workers;
  options.queue_capacity = queue_capacity;
  options.slow_consumer = slow_consumer;
  options.metrics = metrics;
  return options;
}

}  // namespace net
}  // namespace icewafl
