//! Expected responses, computed in-process from the same CSV bytes `serve`
//! loads, and the byte-for-byte comparison against what `serve` sent.

use crate::workload::K;
use dust_bench::json;
use dust_core::{DustResult, RankedTuple};
use dust_table::{parse_csv, CsvOptions, DataLake};
use std::path::Path;

/// Load a lake directory exactly as `serve --lake-dir` does: every `*.csv`
/// file in name order, the file stem as table name, the directory path as
/// lake name.
pub fn load_lake_dir(dir: &Path) -> Result<DataLake, String> {
    let mut lake = DataLake::new(dir.display().to_string());
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "csv"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("table")
            .to_string();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let table = parse_csv(name, &text, CsvOptions::default()).map_err(|e| format!("{e:?}"))?;
        lake.add_table(table).map_err(|e| format!("{e:?}"))?;
    }
    Ok(lake)
}

/// The `result` object of a diverse response.
pub fn diverse_body(result: &DustResult) -> String {
    let tuples: Vec<String> = result
        .tuples
        .iter()
        .map(|t| {
            let cells: Vec<String> = t
                .headers()
                .iter()
                .map(|h| {
                    let cell = t.value_for(h).map(|v| v.render().to_string());
                    format!("\"{}\"", json::escape(&cell.unwrap_or_default()))
                })
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!(
        "{{\"tables\":{},\"dropped\":{},\"candidates\":{},\"tuples\":[{}],\
         \"avg_diversity\":{},\"min_diversity\":{}}}",
        json::string_array(result.retrieved_tables.iter().map(String::as_str)),
        json::string_array(result.dropped_tables.iter().map(String::as_str)),
        result.candidate_tuples,
        tuples.join(","),
        json::number(result.diversity.average),
        json::number(result.diversity.minimum)
    )
}

/// The `result` object of a similar response.
pub fn similar_body(ranked: &[RankedTuple]) -> String {
    let items: Vec<String> = ranked
        .iter()
        .map(|r| {
            format!(
                "{{\"table\":\"{}\",\"row\":{},\"score\":{}}}",
                json::escape(&r.table),
                r.row,
                json::number(r.score)
            )
        })
        .collect();
    format!("{{\"similar\":[{}]}}", items.join(","))
}

/// The `result` object of an `add_table` / `remove_table` response.
pub fn mutation_body(add: bool, table: &str, tables: usize, generation: u64) -> String {
    format!(
        "{{\"{}\":\"{}\",\"tables\":{tables},\"generation\":{generation}}}",
        if add { "added" } else { "removed" },
        json::escape(table)
    )
}

/// A read response without its `secs` field.
pub fn read_response(id: &str, generation: u64, body: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"k\":{K},\"generation\":{generation},\"result\":{body}",
        json::escape(id)
    )
}

/// A mutation response without its `secs` field.
pub fn mutation_response(id: &str, body: &str) -> String {
    format!("{{\"id\":\"{}\",\"result\":{body}", json::escape(id))
}

/// Split a response into everything before `,"secs":` and the `secs`
/// value; `None` when the response does not end in a `secs` field.
pub fn split_secs(response: &str) -> Option<(&str, f64)> {
    let at = response.rfind(",\"secs\":")?;
    let secs = response[at + 8..].strip_suffix('}')?.parse().ok()?;
    Some((&response[..at], secs))
}

/// The `generation` a read response echoes.
pub fn generation(response: &str) -> Option<u64> {
    // The field precedes the (large) result object; parse only the head.
    let at = response.find("\"generation\":")? + 13;
    let digits: String = response[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_is_split_off_the_end() {
        let (head, secs) = split_secs(r#"{"id":"a","result":{"x":1},"secs":0.25}"#).unwrap();
        assert_eq!(head, r#"{"id":"a","result":{"x":1}"#);
        assert_eq!(secs, 0.25);
        assert!(split_secs(r#"{"id":"a","kind":"table","error":"x"}"#).is_none());
    }

    #[test]
    fn generation_is_read_from_the_head() {
        let line = r#"{"id":"c1-3","k":10,"generation":17,"result":{"similar":[]},"secs":1e-3}"#;
        assert_eq!(generation(line), Some(17));
        assert_eq!(split_secs(line).unwrap().1, 0.001);
    }
}
