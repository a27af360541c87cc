//! Jeong et al. (2021): racial bias in classifiers predicting 9th-grade math
//! performance (HSLS:09). 8 findings (ids 56–63): accuracy / FPR / FNR /
//! predicted-base-rate comparisons between the privileged (White/Asian) and
//! disadvantaged (Black/Hispanic/Native American) groups, for a logistic
//! regression and a random forest.
//!
//! Each statistic *re-runs the paper's whole pipeline* on the dataset it is
//! given: train/test split, model training, per-group evaluation — so
//! running it on synthetic data reproduces the full analysis, as the
//! methodology requires.

use crate::error::Result;
use crate::finding::{Check, Finding, FindingType as FT};
use crate::publication::Publication;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synrd_data::{BenchmarkDataset, Dataset};
use synrd_ml::{
    group_metrics, train_test_split, ForestOptions, Metrics, RandomForest, TreeOptions,
};
use synrd_stats::logistic_columns;

/// Which model family a finding evaluates.
#[derive(Clone, Copy, PartialEq)]
enum Model {
    Logistic,
    Forest,
}

/// Row-major features, binary labels, and per-row group ids.
type SupervisedData = (Vec<Vec<f64>>, Vec<f64>, Vec<u32>);

/// Feature matrix (everything except the label and the protected attribute),
/// labels, and group ids.
fn prepare(ds: &Dataset) -> Result<SupervisedData> {
    let d = ds.n_attrs();
    let race = ds.domain().index_of("race_group")?;
    let label = ds.domain().index_of("top50")?;
    let mut features: Vec<Vec<f64>> = vec![Vec::with_capacity(d - 2); ds.n_rows()];
    for a in 0..d {
        if a == race || a == label {
            continue;
        }
        // Codes as numeric features; the survey items are ordinal anyway.
        let mut r = 0;
        ds.packed_column(a)?.for_each_code(|code| {
            features[r].push(f64::from(code));
            r += 1;
        });
    }
    let mut y: Vec<f64> = Vec::with_capacity(ds.n_rows());
    ds.packed_column(label)?
        .for_each_code(|c| y.push(f64::from(c)));
    let groups: Vec<u32> = ds.decode_column(race)?;
    Ok((features, y, groups))
}

/// The last dataset a thread ran the pipeline on, with the (privileged,
/// disadvantaged) group metrics of each model family run on it so far.
struct Memo {
    data: Dataset,
    results: Vec<(Model, (Metrics, Metrics))>,
}

thread_local! {
    /// Memo of the last pipeline run per thread: the benchmark evaluates all
    /// eight findings on the same dataset in sequence, and four findings
    /// share each model family — this avoids retraining 4× per draw. It is
    /// keyed by the dataset's whole content: comparing a kept clone with
    /// `==` takes microseconds against the milliseconds of a training run,
    /// and no two datasets can share a key.
    static PIPELINE_MEMO: std::cell::RefCell<Option<Memo>> =
        const { std::cell::RefCell::new(None) };
}

/// Train the model and return (privileged, disadvantaged) test metrics.
/// Group code 0 = privileged, 1 = disadvantaged (generator convention).
fn run_pipeline(ds: &Dataset, model: Model) -> Result<(Metrics, Metrics)> {
    PIPELINE_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if memo.as_ref().is_some_and(|memo| memo.data != *ds) {
            *memo = None;
        }
        let memo = memo.get_or_insert_with(|| Memo {
            data: ds.clone(),
            results: Vec::new(),
        });
        if let Some((_, result)) = memo.results.iter().find(|(m, _)| *m == model) {
            return Ok(*result);
        }
        let result = run_pipeline_uncached(ds, model)?;
        memo.results.push((model, result));
        Ok(result)
    })
}

fn run_pipeline_uncached(ds: &Dataset, model: Model) -> Result<(Metrics, Metrics)> {
    let (x, y, groups) = prepare(ds)?;
    // Fixed internal seed: the pipeline is part of the finding definition.
    let mut rng = StdRng::seed_from_u64(0x4a31_2021);
    let (train, test) = train_test_split(x.len(), 0.3, &mut rng)?;
    let xtr: Vec<Vec<f64>> = train.iter().map(|&i| x[i].clone()).collect();
    let ytr: Vec<f64> = train.iter().map(|&i| y[i]).collect();
    let xte: Vec<Vec<f64>> = test.iter().map(|&i| x[i].clone()).collect();
    let yte: Vec<f64> = test.iter().map(|&i| y[i]).collect();
    let gte: Vec<u32> = test.iter().map(|&i| groups[i]).collect();

    let scores: Vec<f64> = match model {
        Model::Logistic => {
            // Column-major view for the IRLS fit.
            let d = xtr[0].len();
            let cols: Vec<Vec<f64>> = (0..d)
                .map(|j| xtr.iter().map(|row| row[j]).collect())
                .collect();
            let fit = logistic_columns(&cols, &ytr)?;
            xte.iter()
                .map(|row| {
                    let eta: f64 = fit.coefficients[0]
                        + row
                            .iter()
                            .zip(&fit.coefficients[1..])
                            .map(|(a, b)| a * b)
                            .sum::<f64>();
                    1.0 / (1.0 + (-eta).exp())
                })
                .collect()
        }
        Model::Forest => {
            let options = ForestOptions {
                n_trees: 20,
                tree: TreeOptions {
                    max_depth: 8,
                    min_samples_split: 10,
                    max_features: None,
                },
            };
            let forest = RandomForest::fit(&xtr, &ytr, options, &mut rng)?;
            forest.predict_proba(&xte)
        }
    };
    let by_group = group_metrics(&scores, &yte, &gte, 2)?;
    Ok((by_group[0], by_group[1]))
}

fn metric_finding(
    id: u32,
    name: &'static str,
    kind: FT,
    check: Check,
    model: Model,
    extract: fn(&Metrics, &Metrics) -> Vec<f64>,
) -> Finding {
    Finding::new(
        id,
        name,
        kind,
        check,
        Box::new(move |ds: &Dataset| {
            let (privileged, disadvantaged) = run_pipeline(ds, model)?;
            Ok(extract(&privileged, &disadvantaged))
        }),
    )
}

/// The Jeong et al. 2021 publication.
pub struct Jeong2021;

impl Publication for Jeong2021 {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Jeong2021
    }

    fn findings(&self) -> Vec<Finding> {
        vec![
            metric_finding(
                56,
                "logistic accuracy is comparable across groups",
                FT::LogisticAccuracy,
                Check::Tolerance { alpha: 0.08 },
                Model::Logistic,
                |p, d| vec![p.accuracy - d.accuracy],
            ),
            metric_finding(
                57,
                "forest accuracy is comparable across groups",
                FT::LogisticAccuracy,
                Check::Tolerance { alpha: 0.08 },
                Model::Forest,
                |p, d| vec![p.accuracy - d.accuracy],
            ),
            metric_finding(
                58,
                "logistic FPR: privileged get the benefit of the doubt",
                FT::LogisticFpr,
                Check::Order,
                Model::Logistic,
                |p, d| vec![p.fpr, d.fpr],
            ),
            metric_finding(
                59,
                "forest FPR: privileged get the benefit of the doubt",
                FT::LogisticFpr,
                Check::Order,
                Model::Forest,
                |p, d| vec![p.fpr, d.fpr],
            ),
            metric_finding(
                60,
                "logistic FNR: disadvantaged are under-estimated",
                FT::LogisticFnr,
                Check::Order,
                Model::Logistic,
                |p, d| vec![d.fnr, p.fnr],
            ),
            metric_finding(
                61,
                "forest FNR: disadvantaged are under-estimated",
                FT::LogisticFnr,
                Check::Order,
                Model::Forest,
                |p, d| vec![d.fnr, p.fnr],
            ),
            metric_finding(
                62,
                "logistic predicted base rate favors the privileged",
                FT::LogisticPbr,
                Check::Order,
                Model::Logistic,
                |p, d| vec![p.pbr, d.pbr],
            ),
            metric_finding(
                63,
                "forest predicted base rate favors the privileged",
                FT::LogisticPbr,
                Check::Order,
                Model::Forest,
                |p, d| vec![p.pbr, d.pbr],
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every finding's statistics on the last of `datasets`, evaluated in
    /// turn on one new thread (so on one pipeline memo).
    fn last_on_new_thread(datasets: Vec<Dataset>) -> Vec<Vec<u64>> {
        std::thread::spawn(move || {
            let findings = Jeong2021.findings();
            let mut last = Vec::new();
            for ds in &datasets {
                last = findings
                    .iter()
                    .map(|f| {
                        let stats = f.evaluate(ds).expect("evaluate");
                        stats.into_iter().map(f64::to_bits).collect()
                    })
                    .collect();
            }
            last
        })
        .join()
        .expect("evaluation thread")
    }

    #[test]
    fn memo_tells_apart_datasets_that_share_label_group_and_ses() {
        let a = Jeong2021.generate(2_500, 1);
        let other = Jeong2021.generate(2_500, 2);
        let mut columns = other.to_columns();
        for name in ["top50", "race_group", "ses"] {
            let attr = a.domain().index_of(name).unwrap();
            columns[attr] = a.decode_column(attr).unwrap();
        }
        let spliced = Dataset::new(a.domain().clone(), columns).unwrap();
        assert_eq!(
            last_on_new_thread(vec![a, spliced.clone()]),
            last_on_new_thread(vec![spliced])
        );
    }
}
