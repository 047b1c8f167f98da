//! The full-data-scan oracle and the identity gates.
//!
//! Every number this benchmark prints is preceded by a check that the
//! program's outputs equal what a plain scan of the raw arrays gives under
//! the same binning: subset counts exactly, correlation answers through
//! the repository's own pure finishers (so floats compare bit for bit,
//! as the repository's tests assert), selected steps against
//! `select_greedy` on full-data summaries, mined subsets against
//! `mine_full`. A failed gate is an `Err`: the run aborts with a non-zero
//! exit before any metric line.

use crate::data::Dataset;
use ibis_analysis::{
    finish_correlation, mine_full, select_greedy, CorrelationPartial, Metric, MinedSubset,
    MiningConfig, Partitioning, StepSummary, SubsetQuery, VarSummary,
};
use ibis_core::Binner;
use ibis_insitu::engine::render_answers;
use ibis_insitu::{QueryAnswer, QueryRequest};
use std::ops::Range;

/// A gate's verdict.
pub type Gate = Result<(), String>;

/// A deliberate corruption of the *program's* output, to prove the gates
/// bite (`--sabotage`, used by the self-test only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Leave outputs alone.
    None,
    /// Add one to the first subset count the program returns.
    Count,
    /// Flip one bit of the last step index the program selected.
    Selection,
}

/// Raw data re-expressed as per-cell bin ids, the only preprocessing the
/// oracle does; every answer is a scan over these.
#[derive(Debug)]
pub struct Oracle {
    variables: Vec<&'static str>,
    binners: Vec<Binner>,
    /// `ids[step][var][cell]`.
    ids: Vec<Vec<Vec<u8>>>,
    cells: usize,
}

/// One variable's predicate, resolved to bins and cells.
struct Pred {
    /// Inclusive bin span, or `None` when the value range selects nothing.
    bins: Option<(u8, u8)>,
    region: Range<usize>,
}

impl Pred {
    fn admits(&self, cell: usize, id: u8) -> bool {
        self.region.contains(&cell) && self.bins.is_some_and(|(lo, hi)| (lo..=hi).contains(&id))
    }
}

impl Oracle {
    /// Bins every value of `data`.
    pub fn new(data: &Dataset) -> Oracle {
        assert!(
            data.binners.iter().all(|b| b.nbins() <= 256),
            "oracle stores bin ids in a byte"
        );
        let ids = data
            .steps
            .iter()
            .map(|s| {
                s.fields
                    .iter()
                    .zip(&data.binners)
                    .map(|(f, b)| f.data.iter().map(|&v| b.bin_of(v) as u8).collect())
                    .collect()
            })
            .collect();
        Oracle {
            variables: data.variables(),
            binners: data.binners.clone(),
            ids,
            cells: data.cells(),
        }
    }

    fn var(&self, name: &str) -> Result<usize, String> {
        self.variables
            .iter()
            .position(|&v| v == name)
            .ok_or_else(|| format!("oracle: unknown variable {name:?}"))
    }

    /// Bin-granular value semantics: a bin belongs to `[lo, hi)` when its
    /// range intersects the interval.
    fn pred(&self, var: usize, q: &SubsetQuery) -> Result<Pred, String> {
        let binner = &self.binners[var];
        let bins = match q.value_range {
            None => Some((0, (binner.nbins() - 1) as u8)),
            Some((lo, hi)) if hi > lo => {
                let b0 = binner.bin_of(lo);
                let mut b1 = binner.bin_of(hi);
                if b1 > b0 && binner.bin_range(b1 as usize).0 >= hi {
                    b1 -= 1;
                }
                Some((b0 as u8, b1 as u8))
            }
            Some(_) => None,
        };
        let region = match &q.position_range {
            None => 0..self.cells,
            Some(r) if r.start <= r.end && r.end <= self.cells as u64 => {
                r.start as usize..r.end as usize
            }
            Some(r) => return Err(format!("oracle: region {r:?} outside {} cells", self.cells)),
        };
        Ok(Pred { bins, region })
    }

    /// The answer a scan of the raw data gives.
    pub fn answer(&self, request: &QueryRequest) -> Result<QueryAnswer, String> {
        let step_ids = |step: usize| {
            self.ids
                .get(step)
                .ok_or_else(|| format!("oracle: unknown step {step}"))
        };
        match request {
            QueryRequest::Subset {
                step,
                variable,
                query,
            } => {
                let v = self.var(variable)?;
                let ids = &step_ids(*step)?[v];
                let pred = self.pred(v, query)?;
                let selected = pred
                    .region
                    .clone()
                    .filter(|&c| pred.admits(c, ids[c]))
                    .count() as u64;
                Ok(QueryAnswer::Subset {
                    selected,
                    of: self.cells as u64,
                })
            }
            QueryRequest::Correlation {
                step,
                var_a,
                var_b,
                query_a,
                query_b,
            } => {
                let (a, b) = (self.var(var_a)?, self.var(var_b)?);
                let ids = step_ids(*step)?;
                let (pa, pb) = (self.pred(a, query_a)?, self.pred(b, query_b)?);
                let (na, nb) = (self.binners[a].nbins(), self.binners[b].nbins());
                let mut p = CorrelationPartial::zero(na, nb);
                let start = pa.region.start.max(pb.region.start);
                let both = start..pa.region.end.min(pb.region.end).max(start);
                let pairs = ids[a][both.clone()].iter().zip(&ids[b][both.clone()]);
                for (c, (&ia, &ib)) in (both.start..).zip(pairs) {
                    if pa.admits(c, ia) && pb.admits(c, ib) {
                        p.selected += 1;
                        p.joint[ia as usize * nb + ib as usize] += 1;
                        p.counts_a[ia as usize] += 1;
                        p.counts_b[ib as usize] += 1;
                    }
                }
                Ok(QueryAnswer::Correlation(finish_correlation(
                    &self.binners[a],
                    &self.binners[b],
                    &p,
                )))
            }
        }
    }

    /// The reply document the program must produce for `request` sent as
    /// a one-query batch, byte for byte.
    pub fn expected_reply(&self, request: &QueryRequest) -> Result<String, String> {
        Ok(render_answers(&[Ok(self.answer(request)?)]))
    }
}

/// The program's reply with a subset count bumped by one — what an
/// off-by-one kernel would return.
pub fn off_by_one(reply: &str) -> String {
    let key = "\"selected\": ";
    let Some(at) = reply.find(key) else {
        return reply.to_string();
    };
    let digits = at + key.len();
    let end = reply[digits..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(reply.len(), |e| digits + e);
    let n: u64 = reply[digits..end].parse().unwrap_or(0);
    format!("{}{}{}", &reply[..digits], n + 1, &reply[end..])
}

/// Gate: every reply equals its expectation, and at least 90 % of the
/// subset queries select something (a catalog of empty answers would
/// time nothing).
pub fn check_replies(
    what: &str,
    requests: &[QueryRequest],
    expected: &[String],
    replies: &[String],
) -> Gate {
    if replies.len() != expected.len() {
        return Err(format!(
            "{what}: {} replies for {} queries",
            replies.len(),
            expected.len()
        ));
    }
    for (i, (got, want)) in replies.iter().zip(expected).enumerate() {
        if got != want {
            return Err(format!(
                "{what}: query {i} {:?}\n  program: {got}\n  oracle:  {want}",
                requests[i]
            ));
        }
    }
    let subsets: Vec<&String> = requests
        .iter()
        .zip(expected)
        .filter(|(r, _)| matches!(r, QueryRequest::Subset { .. }))
        .map(|(_, e)| e)
        .collect();
    let empty = subsets
        .iter()
        .filter(|e| e.contains("\"selected\": 0,"))
        .count();
    if empty * 10 > subsets.len() {
        return Err(format!(
            "{what}: {empty} of {} subset queries select nothing",
            subsets.len()
        ));
    }
    Ok(())
}

/// The steps `select_greedy` keeps when it sees the raw arrays.
pub fn full_data_selection(data: &Dataset, k: usize, metric: Metric) -> Vec<usize> {
    let summaries: Vec<StepSummary> = data
        .steps
        .iter()
        .map(|s| StepSummary {
            step: s.step,
            vars: s
                .fields
                .iter()
                .zip(&data.binners)
                .map(|(f, b)| VarSummary::full(f.data.clone(), b.clone()))
                .collect(),
        })
        .collect();
    select_greedy(&summaries, k, metric, Partitioning::FixedLength).selected
}

/// Gate: the program's selection equals the full-data one.
pub fn check_selection(what: &str, program: &[usize], full: &[usize], sabotage: Sabotage) -> Gate {
    let mut program = program.to_vec();
    if sabotage == Sabotage::Selection {
        if let Some(last) = program.last_mut() {
            *last ^= 1;
        }
    }
    if program != full {
        return Err(format!(
            "{what}: program selected {program:?}, full data selects {full:?}"
        ));
    }
    Ok(())
}

/// The subsets `mine_full` finds between the first two fields of `step`.
pub fn full_data_mining(data: &Dataset, step: usize, cfg: &MiningConfig) -> Vec<MinedSubset> {
    let f = &data.steps[step].fields;
    mine_full(
        &f[0].data,
        &f[1].data,
        &data.binners[0],
        &data.binners[1],
        cfg,
    )
    .subsets
}

/// Gate: mined subsets are identical (indices and both MI floats).
pub fn check_mining(program: &[MinedSubset], full: &[MinedSubset]) -> Gate {
    if program != full {
        return Err(format!(
            "mining: program found {} subsets, full data {} (or their scores differ)",
            program.len(),
            full.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Sizes, Source};
    use ibis_analysis::correlation_query;
    use ibis_core::BitmapIndex;

    fn ocean() -> Dataset {
        Dataset::generate(Source::Ocean, &Sizes::smoke())
    }

    #[test]
    fn oracle_agrees_with_the_bitmap_path_bit_for_bit() {
        let d = ocean();
        let o = Oracle::new(&d);
        let f = &d.steps[2].fields;
        let a = BitmapIndex::build(&f[0].data, d.binners[0].clone());
        let b = BitmapIndex::build(&f[1].data, d.binners[1].clone());
        let cells = d.cells() as u64;
        let qa = SubsetQuery::value(8.0, 15.0).with_region(cells / 8..cells / 2);
        let qb = SubsetQuery::value(34.0, 34.6).with_region(cells / 8..cells / 2);
        let want = correlation_query(&a, &b, &qa, &qb).unwrap();
        let got = o
            .answer(&QueryRequest::Correlation {
                step: 2,
                var_a: "temperature".into(),
                var_b: "salinity".into(),
                query_a: qa.clone(),
                query_b: qb,
            })
            .unwrap();
        assert_eq!(got, QueryAnswer::Correlation(want));

        let sel = qa.evaluate(&a).unwrap().count_ones();
        assert!(sel > 0);
        let got = o
            .answer(&QueryRequest::Subset {
                step: 2,
                variable: "temperature".into(),
                query: qa,
            })
            .unwrap();
        assert_eq!(
            got,
            QueryAnswer::Subset {
                selected: sel,
                of: cells
            }
        );
    }

    #[test]
    fn a_wrong_count_and_a_flipped_selection_bit_fail_their_gates() {
        let d = ocean();
        let o = Oracle::new(&d);
        let req = QueryRequest::Subset {
            step: 0,
            variable: "salinity".into(),
            query: SubsetQuery::value(33.0, 36.0),
        };
        let want = o.expected_reply(&req).unwrap();
        let reqs = [req];
        let same = std::slice::from_ref(&want);
        assert!(check_replies("t", &reqs, same, same).is_ok());
        let wrong = off_by_one(&want);
        assert_ne!(wrong, want);
        let err = check_replies("t", &reqs, &[want], &[wrong]).unwrap_err();
        assert!(err.contains("query 0"), "{err}");

        let full = full_data_selection(&d, 4, Metric::Emd);
        assert!(check_selection("t", &full, &full, Sabotage::None).is_ok());
        assert!(check_selection("t", &full, &full, Sabotage::Selection).is_err());
    }

    #[test]
    fn a_catalog_of_empty_answers_is_refused() {
        let d = ocean();
        let o = Oracle::new(&d);
        let reqs: Vec<QueryRequest> = (0..5)
            .map(|_| QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: SubsetQuery::value(5.0, 5.0),
            })
            .collect();
        let want: Vec<String> = reqs.iter().map(|r| o.expected_reply(r).unwrap()).collect();
        let err = check_replies("t", &reqs, &want, &want).unwrap_err();
        assert!(err.contains("select nothing"), "{err}");
    }
}
