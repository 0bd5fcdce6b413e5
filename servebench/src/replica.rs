//! A step-by-step replica of `SessionView::query` for the traced run.
//!
//! It calls each layer's public functions in the order
//! `SessionView::query` calls them (overlap search → holistic alignment +
//! outer union → tuple embedding → Algorithm 2's prune, pairwise matrix,
//! clustering, medoids and re-rank) and wraps a span around each call. The
//! traced run asserts that its selection equals the session's bit for bit,
//! so the profile describes the program as it is.

use crate::trace::Trace;
use dust_align::{outer_union, HolisticAligner};
use dust_cluster::{agglomerative_with, cluster_medoids_from_matrix, Linkage};
use dust_core::{PipelineConfig, SearchTechnique, TupleEmbedderKind};
use dust_diversify::{
    desc_nan_last, prune_tuples_with_store, DiversificationInput, DiversityScores, DustConfig,
};
use dust_embed::{ColumnEncoder, PairwiseMatrix, TupleEncoder, Vector};
use dust_search::{InvertedValueIndex, OverlapSearch};
use dust_table::{DataLake, Table, Tuple};
use std::collections::{HashMap, HashSet};

/// The resident structures a session query reads, rebuilt from the lake.
pub struct Replica {
    config: PipelineConfig,
    search: OverlapSearch,
    index: InvertedValueIndex,
    aligner: HolisticAligner,
    encoder: TupleEncoder,
}

/// What the replica computed for one query (the fields of `DustResult`
/// that the comparison reads).
#[derive(Debug, Clone)]
pub struct ReplicaResult {
    /// The selected tuples.
    pub tuples: Vec<Tuple>,
    /// Tables the search step returned.
    pub retrieved: Vec<String>,
    /// Returned tables that failed their lake lookup.
    pub dropped: Vec<String>,
    /// Size of the outer-union candidate pool.
    pub candidates: usize,
    /// Diversity of the selection.
    pub diversity: DiversityScores,
}

impl Replica {
    /// Build the replica's structures for `lake` (overlap search with a
    /// pre-trained tuple encoder, the configuration `serve` runs).
    pub fn new(lake: &DataLake, config: &PipelineConfig) -> Replica {
        assert_eq!(
            config.search,
            SearchTechnique::Overlap,
            "replica covers overlap search"
        );
        let TupleEmbedderKind::Pretrained(backbone) = config.embedder else {
            panic!("replica covers pre-trained tuple embeddings only");
        };
        Replica {
            config: config.clone(),
            search: OverlapSearch::new(),
            index: InvertedValueIndex::build(lake),
            aligner: HolisticAligner {
                encoder: ColumnEncoder::new(config.alignment_model, config.alignment_serialization),
                linkage: config.alignment_linkage,
                distance: config.distance,
            },
            encoder: TupleEncoder::new(backbone),
        }
    }

    /// Run one traced query against `lake` (the lake the index was built
    /// from). Spans: `query` → `search`, `align`, `embed`, `diversify` →
    /// `diversify.{store,prune,matrix,cluster,medoid,rerank}`.
    pub fn query(
        &self,
        trace: &mut Trace,
        request: u64,
        lake: &DataLake,
        query: &Table,
        k: usize,
    ) -> ReplicaResult {
        trace.span(request, "query", |trace| {
            let limit = self.search.candidate_limit;
            let retrieved: Vec<String> = trace.span(request, "search", |_| {
                self.search
                    .search_with_index(lake, query, self.config.tables_per_query, &self.index)
                    .into_iter()
                    .map(|r| r.table)
                    .collect()
            });
            let shortlisted = match self.index.candidates(query, limit).len() {
                0 => lake.num_tables(),
                _ if limit == 0 => lake.num_tables(),
                n => n,
            };
            trace.count(request, "search.shortlisted", shortlisted as f64);
            trace.count(request, "search.returned", retrieved.len() as f64);

            let mut dropped = Vec::new();
            let tables: Vec<&Table> = retrieved
                .iter()
                .filter_map(|name| match lake.table(name) {
                    Ok(table) => Some(table),
                    Err(_) => {
                        dropped.push(name.clone());
                        None
                    }
                })
                .collect();

            let candidates: Vec<Tuple> = trace.span(request, "align", |_| {
                let alignment = self.aligner.align(query, &tables);
                outer_union(query, &tables, &alignment)
            });
            trace.count(request, "align.candidates", candidates.len() as f64);

            let (query_embeddings, candidate_embeddings) = trace.span(request, "embed", |_| {
                let query_tuples = query.tuples();
                (
                    self.encoder.embed_tuples(&query_tuples),
                    self.encoder.embed_tuples(&candidates),
                )
            });
            trace.count(
                request,
                "embed.tuples",
                (query_embeddings.len() + candidate_embeddings.len()) as f64,
            );

            let selection = trace.span(request, "diversify", |trace| {
                self.diversify(
                    trace,
                    request,
                    &query_embeddings,
                    &candidate_embeddings,
                    &candidates,
                    k,
                )
            });

            let selected: Vec<Vector> = selection
                .iter()
                .map(|&i| candidate_embeddings[i].clone())
                .collect();
            ReplicaResult {
                tuples: selection.iter().map(|&i| candidates[i].clone()).collect(),
                retrieved,
                dropped,
                candidates: candidates.len(),
                diversity: DiversityScores::compute(
                    &query_embeddings,
                    &selected,
                    self.config.distance,
                ),
            }
        })
    }

    /// `DustDiversifier::select`, one span per Algorithm 2 step.
    fn diversify(
        &self,
        trace: &mut Trace,
        request: u64,
        query_embeddings: &[Vector],
        candidate_embeddings: &[Vector],
        candidates: &[Tuple],
        k: usize,
    ) -> Vec<usize> {
        let mut table_ids: HashMap<&str, usize> = HashMap::new();
        let sources: Vec<usize> = candidates
            .iter()
            .map(|t| {
                let next = table_ids.len();
                *table_ids.entry(t.source_table()).or_insert(next)
            })
            .collect();
        let distance = self.config.distance;
        let input = trace.span(request, "diversify.store", |_| {
            DiversificationInput::with_sources(
                query_embeddings,
                candidate_embeddings,
                &sources,
                distance,
            )
        });
        let dust = DustConfig {
            linkage: Linkage::Average,
            ..self.config.diversifier.to_dust_config()
        };

        let n = input.num_candidates();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        if n <= k {
            return (0..n).collect();
        }
        let kept: Vec<usize> = trace.span(request, "diversify.prune", |_| match dust.prune_to {
            Some(s) if n > s => {
                prune_tuples_with_store(input.store(), input.candidate_sources, distance, s)
            }
            _ => (0..n).collect(),
        });
        trace.count(
            request,
            "diversify.prune_kept_ratio",
            kept.len() as f64 / n as f64,
        );
        if kept.len() <= k {
            return sanitize_selection(kept, n, k);
        }

        let num_clusters = k.saturating_mul(dust.p.max(1)).min(kept.len());
        let medoids: Vec<usize> = if num_clusters >= kept.len() {
            (0..kept.len()).collect()
        } else {
            let matrix = trace.span(request, "diversify.matrix", |_| {
                if kept.len() == n {
                    PairwiseMatrix::from_store(input.store(), distance)
                } else {
                    PairwiseMatrix::from_store_subset(input.store(), &kept, distance)
                }
            });
            let m = kept.len() as f64;
            trace.count(request, "diversify.matrix_pairs", m * (m - 1.0) / 2.0);
            let min_clusters = if dust.full_dendrogram {
                1
            } else {
                num_clusters
            };
            let assignment = trace.span(request, "diversify.cluster", |_| {
                agglomerative_with(&matrix, dust.linkage, dust.algorithm, min_clusters)
                    .cut(num_clusters)
            });
            trace.count(request, "diversify.clusters", num_clusters as f64);
            trace.span(request, "diversify.medoid", |_| {
                cluster_medoids_from_matrix(&matrix, &assignment)
            })
        };

        // The first distance-to-query read computes the columns for all n
        // candidates; only the medoids' entries are used.
        trace.count(
            request,
            "diversify.rerank_useful_ratio",
            medoids.len() as f64 / n as f64,
        );
        let ranked = trace.span(request, "diversify.rerank", |_| {
            let mut ranked: Vec<(usize, f64, f64)> = medoids
                .iter()
                .map(|&local| {
                    let global = kept[local];
                    let min_d = input.min_distance_to_query(global);
                    let avg_d = input.avg_distance_to_query(global);
                    let min_d = if min_d.is_finite() { min_d } else { avg_d };
                    (global, min_d, avg_d)
                })
                .collect();
            ranked.sort_by(|a, b| {
                desc_nan_last(a.1, b.1)
                    .then_with(|| desc_nan_last(a.2, b.2))
                    .then_with(|| a.0.cmp(&b.0))
            });
            ranked
        });
        sanitize_selection(ranked.into_iter().map(|(i, _, _)| i).collect(), n, k)
    }
}

/// The diversifier's final safety net: dedupe, keep in-bounds, truncate.
fn sanitize_selection(mut selection: Vec<usize>, n: usize, k: usize) -> Vec<usize> {
    let mut seen = HashSet::new();
    selection.retain(|&i| i < n && seen.insert(i));
    selection.truncate(k);
    selection
}
