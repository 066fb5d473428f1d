#include "faultsim/campaign.hpp"

namespace hybridcnn::faultsim {

Outcome classify(bool faults_activated, bool aborted, bool matches_golden) {
  if (aborted) return Outcome::kDetectedAbort;
  if (!matches_golden) return Outcome::kSilentCorruption;
  return faults_activated ? Outcome::kCorrected : Outcome::kCorrect;
}

std::string outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kCorrect:
      return "correct";
    case Outcome::kCorrected:
      return "corrected";
    case Outcome::kDetectedAbort:
      return "detected_abort";
    case Outcome::kSilentCorruption:
      return "silent_corruption";
  }
  return "unknown";
}

void CampaignSummary::add(Outcome o) {
  ++runs;
  switch (o) {
    case Outcome::kCorrect:
      ++correct;
      break;
    case Outcome::kCorrected:
      ++corrected;
      break;
    case Outcome::kDetectedAbort:
      ++detected_abort;
      break;
    case Outcome::kSilentCorruption:
      ++silent_corruption;
      break;
  }
}

CampaignSummary& CampaignSummary::operator+=(
    const CampaignSummary& other) noexcept {
  runs += other.runs;
  correct += other.correct;
  corrected += other.corrected;
  detected_abort += other.detected_abort;
  silent_corruption += other.silent_corruption;
  return *this;
}

double CampaignSummary::availability() const {
  if (runs == 0) return 0.0;
  return static_cast<double>(correct + corrected) /
         static_cast<double>(runs);
}

double CampaignSummary::safety() const {
  if (runs == 0) return 0.0;
  return static_cast<double>(runs - silent_corruption) /
         static_cast<double>(runs);
}

double CampaignSummary::sdc_rate() const {
  if (runs == 0) return 0.0;
  return static_cast<double>(silent_corruption) / static_cast<double>(runs);
}

}  // namespace hybridcnn::faultsim
