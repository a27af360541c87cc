//! The codec of fitted synthesizer state — the payloads of the fit cache.
//!
//! A [`FittedState`] is whatever a synthesizer needs to sample without
//! refitting, and its document states each fact once. The state's domain
//! fixes every attribute's cardinality, so no part below it repeats one:
//!
//! * PGM (AIM, MST, PrivMRF): `{cliques, beliefs}`, one bare log-value
//!   array per clique. The junction tree is a deterministic function of
//!   the domain shape and its maximal cliques ([`JunctionTree::build`] on a
//!   chordal graph reproduces itself), so the decoder rebuilds the tree,
//!   and with it each belief's scope and shape
//!   ([`FittedModel::from_parts`]).
//! * PrivBayes: one `{attr, parents, counts}` per node, in sampling order;
//!   each table spans sorted `parents ∪ {attr}` with the domain's
//!   cardinalities.
//! * GEM: the mixture logits.
//! * PATECTGAN: the generator MLP. The synthesizer derives the one-hot
//!   output layout from the domain and the latent width from the
//!   generator's input.
//!
//! No optimizer state is stored, since no restored synthesizer trains.
//! Everything routes through the canonical JSON model, so the same
//! guarantees hold as for cell outcomes: floats round-trip bit-for-bit (NaN
//! and ±∞ included) and equal states serialize to equal bytes. Decoding
//! re-runs the structural checks of a fresh fit, so a corrupted or
//! hand-edited file surfaces as a decode error, never as a silently wrong
//! model; `restore_state` then checks the parts against each other.

use crate::codec::{
    codec_err, f64_items, f64_vec, field, str_field, usize_field, JsonCodec, JsonDecode,
};
use crate::json::JsonValue;
use crate::StoreError;
use synrd_data::{AttrKind, Attribute, Domain, Marginal};
use synrd_ml::{Activation, DenseState, MlpState};
use synrd_pgm::{FittedModel, JunctionTree};
use synrd_synth::{BayesNode, FittedState, GemState};

fn arr_field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], StoreError> {
    field(value, key)?
        .as_arr()
        .ok_or_else(|| codec_err(format!("field '{key}' is not an array")))
}

fn usize_arr(values: &[usize]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&v| JsonValue::Uint(v as u64)).collect())
}

fn usize_items(value: &JsonValue, key: &str) -> Result<Vec<usize>, StoreError> {
    value
        .as_arr()
        .ok_or_else(|| codec_err(format!("'{key}' is not an array")))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|u| usize::try_from(u).ok())
                .ok_or_else(|| codec_err(format!("non-index value in '{key}'")))
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
}

fn attribute_from_json(value: &JsonValue) -> Result<Attribute, StoreError> {
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

impl JsonCodec for Domain {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.attributes().iter().map(JsonCodec::to_json).collect())
    }
}

fn domain_from_json(value: &JsonValue) -> Result<Domain, StoreError> {
    let attrs = value
        .as_arr()
        .ok_or_else(|| codec_err("domain is not an array"))?
        .iter()
        .map(attribute_from_json)
        .collect::<Result<Vec<_>, StoreError>>()?;
    Ok(Domain::new(attrs))
}

/// A PGM model: its cliques and one bare log-value array per clique.
fn model_to_json(model: &FittedModel) -> JsonValue {
    let cliques = model.tree().cliques().iter().map(|c| usize_arr(c));
    let beliefs = model.calibrated().beliefs.iter();
    let beliefs = beliefs.map(|b| JsonValue::num_arr(b.log_values()));
    JsonValue::obj(vec![
        ("cliques", JsonValue::Arr(cliques.collect())),
        ("beliefs", JsonValue::Arr(beliefs.collect())),
    ])
}

fn model_from_json(value: &JsonValue, domain: &Domain) -> Result<FittedModel, StoreError> {
    let cliques = arr_field(value, "cliques")?
        .iter()
        .map(|c| usize_items(c, "cliques"))
        .collect::<Result<Vec<_>, StoreError>>()?;
    // The stored cliques already passed the fit-time cell limit; rebuild
    // unconditionally. The beliefs are listed in the tree's clique order, so
    // the rebuild must reproduce the stored cliques exactly.
    let tree = JunctionTree::build(&domain.shape(), &cliques, usize::MAX)
        .map_err(|e| codec_err(format!("invalid junction tree: {e}")))?;
    if tree.cliques() != cliques.as_slice() {
        return Err(codec_err("stored cliques are not the rebuilt tree's"));
    }
    let beliefs = arr_field(value, "beliefs")?
        .iter()
        .map(|b| f64_items(b, "beliefs"))
        .collect::<Result<Vec<_>, StoreError>>()?;
    FittedModel::from_parts(tree, beliefs)
        .map_err(|e| codec_err(format!("beliefs do not match tree: {e}")))
}

/// A PrivBayes node: the table's scope and shape follow from `attr`,
/// `parents` and the domain, so only its counts are stored.
fn node_to_json(node: &BayesNode) -> JsonValue {
    JsonValue::obj(vec![
        ("attr", JsonValue::Uint(node.attr as u64)),
        ("parents", usize_arr(&node.parents)),
        ("counts", JsonValue::num_arr(node.table.counts())),
    ])
}

fn node_from_json(value: &JsonValue, domain: &Domain) -> Result<BayesNode, StoreError> {
    let attr = usize_field(value, "attr")?;
    let parents = usize_items(field(value, "parents")?, "parents")?;
    let mut attrs = parents.clone();
    attrs.push(attr);
    attrs.sort_unstable();
    let shape = attrs
        .iter()
        .map(|&a| domain.cardinality(a))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| codec_err(format!("invalid node: {e}")))?;
    let table = Marginal::from_counts(attrs, shape, f64_vec(value, "counts")?)
        .map_err(|e| codec_err(format!("invalid node table: {e}")))?;
    Ok(BayesNode {
        attr,
        parents,
        table,
    })
}

impl JsonCodec for GemState {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![("logits", tensor3(&self.logits))])
    }
}

fn gem_from_json(value: &JsonValue) -> Result<GemState, StoreError> {
    Ok(GemState {
        logits: tensor3_field(value, "logits")?,
    })
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
}

fn dense_from_json(value: &JsonValue) -> Result<DenseState, StoreError> {
    Ok(DenseState {
        input: usize_field(value, "input")?,
        output: usize_field(value, "output")?,
        w: f64_vec(value, "w")?,
        b: f64_vec(value, "b")?,
    })
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
}

fn mlp_from_json(value: &JsonValue) -> Result<MlpState, StoreError> {
    Ok(MlpState {
        layers: arr_field(value, "layers")?
            .iter()
            .map(dense_from_json)
            .collect::<Result<Vec<_>, StoreError>>()?,
        output_activation: activation_from_code(str_field(value, "output_activation")?)?,
    })
}

impl JsonCodec for FittedState {
    fn to_json(&self) -> JsonValue {
        let part = match self {
            FittedState::Pgm { model, .. } => ("model", model_to_json(model)),
            FittedState::PrivBayes { nodes, .. } => (
                "nodes",
                JsonValue::Arr(nodes.iter().map(node_to_json).collect()),
            ),
            FittedState::Gem { model, .. } => ("model", model.to_json()),
            FittedState::PateCtgan { generator, .. } => ("generator", generator.to_json()),
        };
        JsonValue::obj(vec![
            ("kind", JsonValue::Str(self.variant().to_string())),
            ("domain", self.domain().to_json()),
            part,
        ])
    }
}

impl JsonDecode for FittedState {
    fn from_json(value: &JsonValue) -> Result<FittedState, StoreError> {
        let domain = domain_from_json(field(value, "domain")?)?;
        match str_field(value, "kind")? {
            "pgm" => Ok(FittedState::Pgm {
                model: model_from_json(field(value, "model")?, &domain)?,
                domain,
            }),
            "privbayes" => Ok(FittedState::PrivBayes {
                nodes: arr_field(value, "nodes")?
                    .iter()
                    .map(|node| node_from_json(node, &domain))
                    .collect::<Result<Vec<_>, StoreError>>()?,
                domain,
            }),
            "gem" => Ok(FittedState::Gem {
                domain,
                model: gem_from_json(field(value, "model")?)?,
            }),
            "patectgan" => Ok(FittedState::PateCtgan {
                domain,
                generator: mlp_from_json(field(value, "generator")?)?,
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
            let back = attribute_from_json(&crate::parse(&text).unwrap()).unwrap();
            assert_eq!(back.to_json_text(), text, "{}", attr.name());
            assert_eq!(back.name(), attr.name());
            assert_eq!(back.kind(), attr.kind());
            assert_eq!(back.categories(), attr.categories());
        }
    }

    fn binary_domain(names: &[&str]) -> Domain {
        Domain::new(names.iter().map(|&n| Attribute::binary(n)).collect())
    }

    #[test]
    fn marginal_roundtrips_with_nonfinite_counts() {
        // A PrivBayes table over sorted {parent 2, attr 0}: scope and shape
        // are rebuilt from the node and the domain, counts bit for bit.
        let domain = Domain::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::ordinal("c", 3),
        ]);
        let counts = vec![1.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0];
        let node = BayesNode {
            attr: 0,
            parents: vec![2],
            table: Marginal::from_counts(vec![0, 2], vec![2, 3], counts).unwrap(),
        };
        let state = FittedState::PrivBayes {
            domain,
            nodes: vec![node.clone()],
        };
        let text = state.to_json_text();
        let Ok(FittedState::PrivBayes { nodes, .. }) = FittedState::from_json_text(&text) else {
            panic!("privbayes state");
        };
        let (back, m) = (&nodes[0].table, &node.table);
        assert_eq!(back.attrs(), m.attrs());
        assert_eq!(back.shape(), m.shape());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.counts()), bits(m.counts()));
    }

    #[test]
    fn inconsistent_documents_fail_to_decode() {
        let state = |kind: &str, names: &[&str], part: &str| {
            let domain = binary_domain(names).to_json_text();
            format!(r#"{{"kind":"{kind}","domain":{domain},{part}}}"#)
        };
        for bad in [
            // A table whose counts contradict the domain's cardinalities.
            state(
                "privbayes",
                &["x"],
                r#""nodes":[{"attr":0,"parents":[],"counts":[1.0]}]"#,
            ),
            // A node sampling an attribute outside the domain.
            state(
                "privbayes",
                &["x"],
                r#""nodes":[{"attr":1,"parents":[],"counts":[1.0,1.0]}]"#,
            ),
            // A belief shorter than its clique.
            state(
                "pgm",
                &["x", "y"],
                r#""model":{"cliques":[[0,1]],"beliefs":[[0.0,0.0,0.0]]}"#,
            ),
            // One belief for two cliques.
            state(
                "pgm",
                &["x", "y", "z"],
                r#""model":{"cliques":[[0,1],[1,2]],"beliefs":[[0.0,0.0,0.0,0.0]]}"#,
            ),
            // Cliques the rebuilt tree does not list in this order.
            state(
                "pgm",
                &["x", "y", "z"],
                r#""model":{"cliques":[[1,2],[0,1]],"beliefs":[[0.0,0.0,0.0,0.0],[0.0,0.0,0.0,0.0]]}"#,
            ),
            // An unknown tag.
            state("mystery", &[], r#""model":{}"#),
        ] {
            assert!(FittedState::from_json_text(&bad).is_err(), "{bad}");
        }
    }
}
