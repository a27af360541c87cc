//! The canonical JSON encoders of the benchmark's report types, and the
//! decoder of the one the store reads back.
//!
//! Every encoder emits a fixed field order and one canonical scalar
//! rendering (see [`crate::json`]), so equal values serialize to equal
//! bytes. Reports, `config.json` and `fig4_series.json` are written for
//! people and tools and never read back, so [`PaperReport`],
//! [`AggregateSeries`] and [`BenchmarkConfig`] only encode. Decoding
//! ([`JsonDecode`]) exists for what [`crate::DiskStore`] loads: a
//! [`CellOutcome`] here and a fitted state in [`crate::fitted`], whose parts
//! decode through private functions there.
//! For those `encode ∘ decode ∘ encode` is the identity on bytes, the
//! property the round-trip proptests pin down. Floats survive bit-for-bit
//! (finite values via shortest round-trip text, NaN normalized to the quiet
//! NaN every grid path produces), which is what makes a cache-served
//! [`CellOutcome`] `bitwise_eq` to a freshly computed one.

use crate::json::JsonValue;
use crate::parse::parse;
use crate::StoreError;
use synrd::benchmark::{BenchmarkConfig, CellOutcome, CellStatus, PaperReport};
use synrd::finding::FindingType;
use synrd::parity::AggregateSeries;
use synrd_synth::SynthKind;

/// A type with a canonical JSON representation.
pub trait JsonCodec {
    /// Encode into the canonical document model.
    fn to_json(&self) -> JsonValue;

    /// Encode to canonical text.
    fn to_json_text(&self) -> String {
        self.to_json().to_text()
    }
}

/// A type the store reads back: decodes what [`JsonCodec`] wrote. The two
/// [`crate::Keyspace`] values, [`CellOutcome`] and `FittedState`, implement
/// it.
pub trait JsonDecode: JsonCodec + Sized {
    /// Decode from a document.
    ///
    /// # Errors
    /// [`StoreError::Codec`] when the document's shape does not match.
    fn from_json(value: &JsonValue) -> Result<Self, StoreError>;

    /// Decode from text.
    ///
    /// # Errors
    /// Parse errors and shape mismatches.
    fn from_json_text(text: &str) -> Result<Self, StoreError> {
        Self::from_json(&parse(text)?)
    }
}

pub(crate) fn codec_err(message: impl Into<String>) -> StoreError {
    StoreError::Codec(message.into())
}

pub(crate) fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, StoreError> {
    value
        .get(key)
        .ok_or_else(|| codec_err(format!("missing field '{key}'")))
}

pub(crate) fn f64_field(value: &JsonValue, key: &str) -> Result<f64, StoreError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| codec_err(format!("field '{key}' is not a number")))
}

pub(crate) fn usize_field(value: &JsonValue, key: &str) -> Result<usize, StoreError> {
    field(value, key)?
        .as_u64()
        .and_then(|u| usize::try_from(u).ok())
        .ok_or_else(|| codec_err(format!("field '{key}' is not an index")))
}

pub(crate) fn str_field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str, StoreError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| codec_err(format!("field '{key}' is not a string")))
}

pub(crate) fn f64_vec(value: &JsonValue, key: &str) -> Result<Vec<f64>, StoreError> {
    f64_items(field(value, key)?, key)
}

pub(crate) fn f64_items(value: &JsonValue, key: &str) -> Result<Vec<f64>, StoreError> {
    value
        .as_arr()
        .ok_or_else(|| codec_err(format!("'{key}' is not an array")))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| codec_err(format!("non-number in '{key}'")))
        })
        .collect()
}

/// Stable serialization code for a finding type (independent of the
/// human-facing Table 2 label, which is free to change).
fn finding_type_code(t: FindingType) -> &'static str {
    match t {
        FindingType::DescriptiveStatistics => "descriptive_statistics",
        FindingType::RegressionBetweenCoefficients => "regression_between_coefficients",
        FindingType::FixedCoefficientSign => "fixed_coefficient_sign",
        FindingType::CausalPathVariability => "causal_path_variability",
        FindingType::CausalPathInteraction => "causal_path_interaction",
        FindingType::CoefficientDifference => "coefficient_difference",
        FindingType::LogisticPbr => "logistic_pbr",
        FindingType::LogisticFnr => "logistic_fnr",
        FindingType::LogisticFpr => "logistic_fpr",
        FindingType::LogisticAccuracy => "logistic_accuracy",
        FindingType::MeanDifferenceBetweenClass => "mean_difference_between_class",
        FindingType::MeanDifferenceTemporal => "mean_difference_temporal",
        FindingType::CorrelationPearson => "correlation_pearson",
        FindingType::CorrelationSpearman => "correlation_spearman",
    }
}

impl JsonCodec for CellOutcome {
    fn to_json(&self) -> JsonValue {
        let status = match &self.status {
            CellStatus::Ok => JsonValue::Str("ok".to_string()),
            CellStatus::TimedOut => JsonValue::Str("timed_out".to_string()),
            CellStatus::Skipped => JsonValue::Str("skipped".to_string()),
            CellStatus::Infeasible(reason) => {
                JsonValue::obj(vec![("infeasible", JsonValue::Str(reason.clone()))])
            }
        };
        JsonValue::obj(vec![
            ("parity", JsonValue::num_arr(&self.parity)),
            ("seed_variance", JsonValue::num_arr(&self.seed_variance)),
            ("status", status),
            ("fit_seconds", JsonValue::Num(self.fit_seconds)),
        ])
    }
}

impl JsonDecode for CellOutcome {
    fn from_json(value: &JsonValue) -> Result<CellOutcome, StoreError> {
        let status_value = field(value, "status")?;
        let status = match status_value.as_str() {
            Some("ok") => CellStatus::Ok,
            Some("timed_out") => CellStatus::TimedOut,
            Some("skipped") => CellStatus::Skipped,
            Some(other) => return Err(codec_err(format!("unknown cell status '{other}'"))),
            None => CellStatus::Infeasible(str_field(status_value, "infeasible")?.to_string()),
        };
        Ok(CellOutcome {
            parity: f64_vec(value, "parity")?,
            seed_variance: f64_vec(value, "seed_variance")?,
            status,
            fit_seconds: f64_field(value, "fit_seconds")?,
        })
    }
}

impl JsonCodec for PaperReport {
    fn to_json(&self) -> JsonValue {
        let findings = JsonValue::Arr(
            self.findings
                .iter()
                .map(|&(id, name, kind)| {
                    JsonValue::Arr(vec![
                        JsonValue::Uint(u64::from(id)),
                        JsonValue::Str(name.to_string()),
                        JsonValue::Str(finding_type_code(kind).to_string()),
                    ])
                })
                .collect(),
        );
        let synthesizers = JsonValue::Arr(
            self.synthesizers
                .iter()
                .map(|k| JsonValue::Str(k.name().to_string()))
                .collect(),
        );
        let cells = JsonValue::Arr(
            self.cells
                .iter()
                .map(|row| JsonValue::Arr(row.iter().map(JsonCodec::to_json).collect()))
                .collect(),
        );
        JsonValue::obj(vec![
            ("paper_id", JsonValue::Str(self.paper_id.to_string())),
            ("paper_name", JsonValue::Str(self.paper_name.to_string())),
            ("findings", findings),
            ("epsilons", JsonValue::num_arr(&self.epsilons)),
            ("synthesizers", synthesizers),
            ("cells", cells),
            ("control", JsonValue::num_arr(&self.control)),
            ("n_rows", JsonValue::Uint(self.n_rows as u64)),
        ])
    }
}

impl JsonCodec for AggregateSeries {
    fn to_json(&self) -> JsonValue {
        let series = |rows: &[(SynthKind, Vec<f64>)]| {
            JsonValue::Arr(
                rows.iter()
                    .map(|(kind, values)| {
                        JsonValue::Arr(vec![
                            JsonValue::Str(kind.name().to_string()),
                            JsonValue::num_arr(values),
                        ])
                    })
                    .collect(),
            )
        };
        JsonValue::obj(vec![
            ("epsilons", JsonValue::num_arr(&self.epsilons)),
            ("parity", series(&self.parity)),
            ("variance", series(&self.variance)),
        ])
    }
}

impl JsonCodec for BenchmarkConfig {
    fn to_json(&self) -> JsonValue {
        // Durations serialize as exact (secs, nanos) rather than float
        // seconds so the written value is exact for every representable
        // Duration.
        let timeout = match self.fit_timeout {
            None => JsonValue::Null,
            Some(d) => JsonValue::obj(vec![
                ("secs", JsonValue::Uint(d.as_secs())),
                ("nanos", JsonValue::Uint(u64::from(d.subsec_nanos()))),
            ]),
        };
        JsonValue::obj(vec![
            ("epsilons", JsonValue::num_arr(&self.epsilons)),
            ("seeds", JsonValue::Uint(self.seeds as u64)),
            ("bootstraps", JsonValue::Uint(self.bootstraps as u64)),
            ("data_scale", JsonValue::Num(self.data_scale)),
            ("min_rows", JsonValue::Uint(self.min_rows as u64)),
            ("data_seed", JsonValue::Uint(self.data_seed)),
            ("threads", JsonValue::Uint(self.threads as u64)),
            ("fit_timeout", timeout),
            (
                "synthesizers",
                JsonValue::Arr(
                    self.synthesizers
                        .iter()
                        .map(|k| JsonValue::Str(k.name().to_string()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_cell() -> CellOutcome {
        CellOutcome {
            parity: vec![1.0, 0.0, f64::NAN, 0.25],
            seed_variance: vec![0.0, 0.01, f64::NAN, f64::INFINITY],
            status: CellStatus::Infeasible("domain too large: 1e12 cells".to_string()),
            fit_seconds: 0.125,
        }
    }

    #[test]
    fn cell_roundtrips_bitwise_through_text() {
        let cell = sample_cell();
        let text = cell.to_json_text();
        let back = CellOutcome::from_json_text(&text).unwrap();
        assert!(cell.bitwise_eq(&back));
        assert_eq!(back.to_json_text(), text, "canonical text is a fixed point");
        assert_eq!(back.fit_seconds.to_bits(), cell.fit_seconds.to_bits());
    }

    #[test]
    fn every_status_roundtrips() {
        for status in [
            CellStatus::Ok,
            CellStatus::TimedOut,
            CellStatus::Skipped,
            CellStatus::Infeasible(String::new()),
        ] {
            let cell = CellOutcome {
                parity: vec![],
                seed_variance: vec![],
                status: status.clone(),
                fit_seconds: 0.0,
            };
            let back = CellOutcome::from_json_text(&cell.to_json_text()).unwrap();
            assert_eq!(back.status, status);
        }
    }

    #[test]
    fn every_finding_type_code_roundtrips() {
        // A report names each finding's type by its code, so each code must
        // map back to exactly one type.
        for t in FindingType::ALL {
            let code = finding_type_code(t);
            let named: Vec<FindingType> = FindingType::ALL
                .into_iter()
                .filter(|&u| finding_type_code(u) == code)
                .collect();
            assert_eq!(named, [t], "{code}");
        }
    }

    #[test]
    fn config_roundtrips_including_timeout_precision() {
        let mut config = BenchmarkConfig::quick();
        config.fit_timeout = Some(Duration::new(3, 141_592_653));
        config.data_seed = u64::MAX;
        let text = config.to_json_text();
        let doc = parse(&text).unwrap();
        assert_eq!(doc.to_text(), text);
        let timeout = doc.get("fit_timeout").unwrap();
        assert_eq!(timeout.get("secs").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            timeout.get("nanos").and_then(JsonValue::as_u64),
            Some(141_592_653)
        );
        assert_eq!(
            doc.get("data_seed").and_then(JsonValue::as_u64),
            Some(u64::MAX)
        );

        config.fit_timeout = None;
        let doc = parse(&config.to_json_text()).unwrap();
        assert!(doc.get("fit_timeout").is_some_and(JsonValue::is_null));
    }

    #[test]
    fn shape_errors_are_reported_not_panicked() {
        for bad in [
            "{}",
            "{\"parity\":[],\"seed_variance\":[],\"status\":\"nope\",\"fit_seconds\":0.0}",
            "{\"parity\":[\"x\"],\"seed_variance\":[],\"status\":\"ok\",\"fit_seconds\":0.0}",
        ] {
            assert!(CellOutcome::from_json_text(bad).is_err(), "{bad}");
        }
    }
}
