//! The engine's requests put to the reference model (`ibis_testkit`),
//! answered in the engine's own types — the one adapter the shard matrix
//! and the crash suite compare every reply through.

use ibis_insitu::{IbisError, QueryAnswer, QueryRequest};
use ibis_testkit::Model;

pub fn answer(model: &Model, request: &QueryRequest) -> Result<QueryAnswer, IbisError> {
    Ok(match request {
        QueryRequest::Subset {
            step,
            variable,
            query,
        } => {
            let column = model.column(*step, variable);
            QueryAnswer::Subset {
                selected: column.count(query)?,
                of: column.rows(),
            }
        }
        QueryRequest::Correlation {
            step,
            var_a,
            var_b,
            query_a,
            query_b,
        } => {
            let (a, b) = (model.column(*step, var_a), model.column(*step, var_b));
            QueryAnswer::Correlation(a.correlation(b, query_a, query_b)?)
        }
    })
}
