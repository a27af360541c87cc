//! Codecs for fitted synthesizer state — the payloads of the fit cache.
//!
//! A [`FittedState`] is whatever a synthesizer
//! needs to sample without refitting: junction-tree beliefs for the PGM
//! family, conditional probability tables for PrivBayes, the mixture logits
//! for GEM, and the generator MLP's weights and biases for PATECTGAN. No
//! optimizer state is stored, since no restored synthesizer trains.
//! Everything routes through the canonical JSON model, so the same
//! guarantees hold as for cell outcomes: floats round-trip bit-for-bit (NaN
//! and ±∞ included) and equal states serialize to equal bytes.
//!
//! The junction tree itself is **not** serialized edge-by-edge: the tree
//! is a deterministic function of its maximal cliques
//! ([`JunctionTree::build`] on a chordal graph reproduces itself), so the
//! codec stores `(domain_shape, cliques, beliefs)` and rebuilds. Decoding
//! re-runs the same structural validation as a fresh fit
//! ([`FittedModel::from_parts`]), so a corrupted or hand-edited file
//! surfaces as a decode error, never as a silently wrong model.

use crate::codec::{codec_err, f64_vec, field, str_field, usize_field, JsonCodec};
use crate::json::JsonValue;
use crate::StoreError;
use synrd_data::{AttrKind, Attribute, Domain, Marginal};
use synrd_ml::{Activation, DenseState, MlpState};
use synrd_pgm::{CalibratedTree, Factor, FittedModel, JunctionTree};
use synrd_synth::{BayesNode, FittedState, GemState};

fn arr_field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], StoreError> {
    field(value, key)?
        .as_arr()
        .ok_or_else(|| codec_err(format!("field '{key}' is not an array")))
}

fn usize_arr(values: &[usize]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&v| JsonValue::Uint(v as u64)).collect())
}

fn usize_vec(value: &JsonValue, key: &str) -> Result<Vec<usize>, StoreError> {
    arr_field(value, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|u| usize::try_from(u).ok())
                .ok_or_else(|| codec_err(format!("non-index value in '{key}'")))
        })
        .collect()
}

fn f64_items(value: &JsonValue, key: &str) -> Result<Vec<f64>, StoreError> {
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

/// GEM's per-attribute tensors: one `Vec<f64>` per attribute per component.
fn tensor3(values: &[Vec<Vec<f64>>]) -> JsonValue {
    JsonValue::Arr(
        values
            .iter()
            .map(|component| {
                JsonValue::Arr(
                    component
                        .iter()
                        .map(|per| JsonValue::num_arr(per))
                        .collect(),
                )
            })
            .collect(),
    )
}

fn tensor3_field(value: &JsonValue, key: &str) -> Result<Vec<Vec<Vec<f64>>>, StoreError> {
    arr_field(value, key)?
        .iter()
        .map(|component| {
            component
                .as_arr()
                .ok_or_else(|| codec_err(format!("'{key}' component is not an array")))?
                .iter()
                .map(|per| f64_items(per, key))
                .collect()
        })
        .collect()
}

fn attr_kind_code(kind: AttrKind) -> &'static str {
    match kind {
        AttrKind::Categorical => "categorical",
        AttrKind::Ordinal => "ordinal",
        AttrKind::Binary => "binary",
    }
}

fn attr_kind_from_code(code: &str) -> Result<AttrKind, StoreError> {
    match code {
        "categorical" => Ok(AttrKind::Categorical),
        "ordinal" => Ok(AttrKind::Ordinal),
        "binary" => Ok(AttrKind::Binary),
        other => Err(codec_err(format!("unknown attribute kind '{other}'"))),
    }
}

impl JsonCodec for Attribute {
    fn to_json(&self) -> JsonValue {
        let categories = JsonValue::Arr(
            self.categories()
                .iter()
                .map(|c| JsonValue::Str(c.clone()))
                .collect(),
        );
        let numeric = match self.numeric_values() {
            None => JsonValue::Null,
            Some(values) => JsonValue::num_arr(values),
        };
        JsonValue::obj(vec![
            ("name", JsonValue::Str(self.name().to_string())),
            (
                "kind",
                JsonValue::Str(attr_kind_code(self.kind()).to_string()),
            ),
            ("categories", categories),
            ("numeric_values", numeric),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<Attribute, StoreError> {
        let categories = arr_field(value, "categories")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| codec_err("non-string category"))
            })
            .collect::<Result<Vec<_>, StoreError>>()?;
        let numeric_value = field(value, "numeric_values")?;
        let numeric_values = if numeric_value.is_null() {
            None
        } else {
            Some(f64_items(numeric_value, "numeric_values")?)
        };
        Attribute::from_parts(
            str_field(value, "name")?,
            attr_kind_from_code(str_field(value, "kind")?)?,
            categories,
            numeric_values,
        )
        .map_err(|e| codec_err(format!("invalid attribute: {e}")))
    }
}

impl JsonCodec for Domain {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.attributes().iter().map(JsonCodec::to_json).collect())
    }

    fn from_json(value: &JsonValue) -> Result<Domain, StoreError> {
        let attrs = value
            .as_arr()
            .ok_or_else(|| codec_err("domain is not an array"))?
            .iter()
            .map(Attribute::from_json)
            .collect::<Result<Vec<_>, StoreError>>()?;
        Ok(Domain::new(attrs))
    }
}

impl JsonCodec for Marginal {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("attrs", usize_arr(self.attrs())),
            ("shape", usize_arr(self.shape())),
            ("counts", JsonValue::num_arr(self.counts())),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<Marginal, StoreError> {
        Marginal::from_counts(
            usize_vec(value, "attrs")?,
            usize_vec(value, "shape")?,
            f64_vec(value, "counts")?,
        )
        .map_err(|e| codec_err(format!("invalid marginal: {e}")))
    }
}

impl JsonCodec for BayesNode {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("attr", JsonValue::Uint(self.attr as u64)),
            ("parents", usize_arr(&self.parents)),
            ("table", self.table.to_json()),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<BayesNode, StoreError> {
        Ok(BayesNode {
            attr: usize_field(value, "attr")?,
            parents: usize_vec(value, "parents")?,
            table: Marginal::from_json(field(value, "table")?)?,
        })
    }
}

impl JsonCodec for Factor {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("attrs", usize_arr(self.attrs())),
            ("shape", usize_arr(self.shape())),
            ("log_values", JsonValue::num_arr(self.log_values())),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<Factor, StoreError> {
        Factor::from_log_values(
            usize_vec(value, "attrs")?,
            usize_vec(value, "shape")?,
            f64_vec(value, "log_values")?,
        )
        .map_err(|e| codec_err(format!("invalid factor: {e}")))
    }
}

impl JsonCodec for FittedModel {
    fn to_json(&self) -> JsonValue {
        let tree = self.tree();
        let cliques = JsonValue::Arr(tree.cliques().iter().map(|c| usize_arr(c)).collect());
        let beliefs = JsonValue::Arr(
            self.calibrated()
                .beliefs
                .iter()
                .map(JsonCodec::to_json)
                .collect(),
        );
        JsonValue::obj(vec![
            ("domain_shape", usize_arr(tree.domain_shape())),
            ("cliques", cliques),
            ("beliefs", beliefs),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<FittedModel, StoreError> {
        let domain_shape = usize_vec(value, "domain_shape")?;
        let cliques = arr_field(value, "cliques")?
            .iter()
            .map(|c| {
                c.as_arr()
                    .ok_or_else(|| codec_err("clique is not an array"))?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|u| usize::try_from(u).ok())
                            .ok_or_else(|| codec_err("non-index value in clique"))
                    })
                    .collect::<Result<Vec<usize>, StoreError>>()
            })
            .collect::<Result<Vec<_>, StoreError>>()?;
        // The stored cliques already passed the fit-time cell limit; rebuild
        // unconditionally and let `from_parts` arbitrate consistency.
        let tree = JunctionTree::build(&domain_shape, &cliques, usize::MAX)
            .map_err(|e| codec_err(format!("invalid junction tree: {e}")))?;
        let beliefs = arr_field(value, "beliefs")?
            .iter()
            .map(Factor::from_json)
            .collect::<Result<Vec<_>, StoreError>>()?;
        FittedModel::from_parts(tree, CalibratedTree { beliefs })
            .map_err(|e| codec_err(format!("beliefs do not match tree: {e}")))
    }
}

impl JsonCodec for GemState {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![("logits", tensor3(&self.logits))])
    }

    fn from_json(value: &JsonValue) -> Result<GemState, StoreError> {
        Ok(GemState {
            logits: tensor3_field(value, "logits")?,
        })
    }
}

fn activation_code(a: Activation) -> &'static str {
    match a {
        Activation::Linear => "linear",
        Activation::Sigmoid => "sigmoid",
        Activation::Tanh => "tanh",
    }
}

fn activation_from_code(code: &str) -> Result<Activation, StoreError> {
    match code {
        "linear" => Ok(Activation::Linear),
        "sigmoid" => Ok(Activation::Sigmoid),
        "tanh" => Ok(Activation::Tanh),
        other => Err(codec_err(format!("unknown activation '{other}'"))),
    }
}

impl JsonCodec for DenseState {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("input", JsonValue::Uint(self.input as u64)),
            ("output", JsonValue::Uint(self.output as u64)),
            ("w", JsonValue::num_arr(&self.w)),
            ("b", JsonValue::num_arr(&self.b)),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<DenseState, StoreError> {
        Ok(DenseState {
            input: usize_field(value, "input")?,
            output: usize_field(value, "output")?,
            w: f64_vec(value, "w")?,
            b: f64_vec(value, "b")?,
        })
    }
}

impl JsonCodec for MlpState {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            (
                "layers",
                JsonValue::Arr(self.layers.iter().map(JsonCodec::to_json).collect()),
            ),
            (
                "output_activation",
                JsonValue::Str(activation_code(self.output_activation).to_string()),
            ),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<MlpState, StoreError> {
        Ok(MlpState {
            layers: arr_field(value, "layers")?
                .iter()
                .map(DenseState::from_json)
                .collect::<Result<Vec<_>, StoreError>>()?,
            output_activation: activation_from_code(str_field(value, "output_activation")?)?,
        })
    }
}

impl JsonCodec for FittedState {
    fn to_json(&self) -> JsonValue {
        match self {
            FittedState::Pgm { domain, model } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("pgm".to_string())),
                ("domain", domain.to_json()),
                ("model", model.to_json()),
            ]),
            FittedState::PrivBayes { domain, nodes } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("privbayes".to_string())),
                ("domain", domain.to_json()),
                (
                    "nodes",
                    JsonValue::Arr(nodes.iter().map(JsonCodec::to_json).collect()),
                ),
            ]),
            FittedState::Gem { domain, model } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("gem".to_string())),
                ("domain", domain.to_json()),
                ("model", model.to_json()),
            ]),
            FittedState::PateCtgan {
                domain,
                generator,
                blocks,
                z_dim,
            } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("patectgan".to_string())),
                ("domain", domain.to_json()),
                ("generator", generator.to_json()),
                (
                    "blocks",
                    JsonValue::Arr(
                        blocks
                            .iter()
                            .map(|&(offset, card)| usize_arr(&[offset, card]))
                            .collect(),
                    ),
                ),
                ("z_dim", JsonValue::Uint(*z_dim as u64)),
            ]),
        }
    }

    fn from_json(value: &JsonValue) -> Result<FittedState, StoreError> {
        let domain = Domain::from_json(field(value, "domain")?)?;
        match str_field(value, "kind")? {
            "pgm" => Ok(FittedState::Pgm {
                domain,
                model: FittedModel::from_json(field(value, "model")?)?,
            }),
            "privbayes" => Ok(FittedState::PrivBayes {
                domain,
                nodes: arr_field(value, "nodes")?
                    .iter()
                    .map(BayesNode::from_json)
                    .collect::<Result<Vec<_>, StoreError>>()?,
            }),
            "gem" => Ok(FittedState::Gem {
                domain,
                model: GemState::from_json(field(value, "model")?)?,
            }),
            "patectgan" => Ok(FittedState::PateCtgan {
                domain,
                generator: MlpState::from_json(field(value, "generator")?)?,
                blocks: arr_field(value, "blocks")?
                    .iter()
                    .map(|pair| {
                        let pair = pair
                            .as_arr()
                            .filter(|a| a.len() == 2)
                            .ok_or_else(|| codec_err("block is not an [offset, card] pair"))?;
                        let idx = |v: &JsonValue| {
                            v.as_u64()
                                .and_then(|u| usize::try_from(u).ok())
                                .ok_or_else(|| codec_err("non-index value in block"))
                        };
                        Ok((idx(&pair[0])?, idx(&pair[1])?))
                    })
                    .collect::<Result<Vec<_>, StoreError>>()?,
                z_dim: usize_field(value, "z_dim")?,
            }),
            other => Err(codec_err(format!("unknown fitted-state kind '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_roundtrips_all_kinds() {
        for attr in [
            Attribute::binary("flag"),
            Attribute::ordinal("level", 5),
            Attribute::ordinal_scored("gpa", vec![1.0, 2.5, f64::NAN]),
            Attribute::from_parts(
                "race",
                AttrKind::Categorical,
                vec!["a".to_string(), "b".to_string()],
                None,
            )
            .unwrap(),
        ] {
            let text = attr.to_json_text();
            let back = Attribute::from_json_text(&text).unwrap();
            assert_eq!(back.to_json_text(), text, "{}", attr.name());
            assert_eq!(back.name(), attr.name());
            assert_eq!(back.kind(), attr.kind());
            assert_eq!(back.categories(), attr.categories());
        }
    }

    #[test]
    fn marginal_roundtrips_with_nonfinite_counts() {
        let m = Marginal::from_counts(
            vec![0, 2],
            vec![2, 3],
            vec![1.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0],
        )
        .unwrap();
        let back = Marginal::from_json_text(&m.to_json_text()).unwrap();
        assert_eq!(back.attrs(), m.attrs());
        assert_eq!(back.shape(), m.shape());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.counts()), bits(m.counts()));
    }

    #[test]
    fn inconsistent_documents_fail_to_decode() {
        // Marginal with a counts length that contradicts its shape.
        let bad = r#"{"attrs":[0],"shape":[3],"counts":[1.0]}"#;
        assert!(Marginal::from_json_text(bad).is_err());
        // Factor with unsorted attrs.
        let bad = r#"{"attrs":[1,0],"shape":[2,2],"log_values":[0.0,0.0,0.0,0.0]}"#;
        assert!(Factor::from_json_text(bad).is_err());
        // FittedState with an unknown tag.
        let bad = r#"{"kind":"mystery","domain":[]}"#;
        assert!(FittedState::from_json_text(bad).is_err());
    }
}
