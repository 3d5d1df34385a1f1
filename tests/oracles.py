"""Independent reference implementations used by the test-suite only.

Everything here is written with plain Python loops and third-party special
functions so it shares no code paths with the package under test, except
`reference_eta_search`, which is the loop of standalone fits that the
stacked eta search replaced, and the two kernels the fit loop replaced,
`reference_softmax_rows` and `reference_partner_sums`, kept as the exact
oracles of their replacements (the softmax's from K = 8 on is
`reference_softmax_rows_in_order`). `placed_partner_sums` is no reference:
it puts the rows that `ConstraintSet.partner_sums` gives for the
constrained items into zeros, the every-item form the references give.
`repr_spelled` is no reference either: it spells the numbers of a JSON
text as `json.dumps` does, so that a result written with orjson can be
compared with `json.dumps` text.
"""

import csv
import itertools
import math
import re

import numpy as np
from scipy import special

from crowdfuse.constraints import ConstraintConflictError, ConstraintSet
from crowdfuse.fileio import InputFormatError


def reference_mv_posterior(arr, n_classes):
    m_count, n_count = arr.shape
    q = np.zeros((n_count, n_classes))
    for n in range(n_count):
        for m in range(m_count):
            if arr[m, n] > 0:
                q[n, arr[m, n] - 1] += 1.0
        total = q[n].sum()
        if total == 0:
            q[n] = 1.0 / n_classes
        else:
            q[n] /= total
    return q


def reference_ds_em(arr, n_classes, max_iters, tol, smoothing=1e-10):
    m_count, n_count = arr.shape
    q = reference_mv_posterior(arr, n_classes)
    for _ in range(max_iters):
        nk = np.array([sum(q[n, k] for n in range(n_count))
                       for k in range(n_classes)]) + smoothing
        pi = nk / nk.sum()
        gamma = np.full((m_count, n_classes, n_classes), smoothing)
        for m in range(m_count):
            for n in range(n_count):
                if arr[m, n] > 0:
                    for k in range(n_classes):
                        gamma[m, k, arr[m, n] - 1] += q[n, k]
        for m in range(m_count):
            for k in range(n_classes):
                gamma[m, k] /= gamma[m, k].sum()
        q_new = np.zeros_like(q)
        for n in range(n_count):
            logits = np.log(pi).copy()
            for m in range(m_count):
                if arr[m, n] > 0:
                    for k in range(n_classes):
                        logits[k] += math.log(gamma[m, k, arr[m, n] - 1])
            shifted = np.exp(logits - logits.max())
            q_new[n] = shifted / shifted.sum()
        delta = np.max(np.abs(q_new - q))
        q = q_new
        if delta < tol:
            break
    return q


def reference_vbem(arr, n_classes, alpha0, beta0, max_iters, tol):
    m_count, n_count = arr.shape
    q = reference_mv_posterior(arr, n_classes)
    for _ in range(max_iters):
        alpha = alpha0 + np.array([sum(q[n, k] for n in range(n_count))
                                   for k in range(n_classes)])
        beta = np.array(beta0, dtype=float, copy=True)
        for m in range(m_count):
            for n in range(n_count):
                if arr[m, n] > 0:
                    for k in range(n_classes):
                        beta[m, k, arr[m, n] - 1] += q[n, k]
        elog_pi = special.digamma(alpha) - special.digamma(alpha.sum())
        q_new = np.zeros_like(q)
        for n in range(n_count):
            logits = elog_pi.copy()
            for m in range(m_count):
                if arr[m, n] > 0:
                    for k in range(n_classes):
                        logits[k] += special.digamma(
                            beta[m, k, arr[m, n] - 1]) - special.digamma(
                            beta[m, k].sum())
            shifted = np.exp(logits - logits.max())
            q_new[n] = shifted / shifted.sum()
        delta = np.max(np.abs(q_new - q))
        q = q_new
        if delta < tol:
            break
    return q


def brute_force_closure(ml, cl, binary_cl_rule=False):
    """Rule iteration to a fixpoint: ML transitivity, CL propagation through
    ML, and optionally CL+CL with a shared endpoint implying ML. Raises on a
    pair derived as both ML and CL."""
    ml = {tuple(sorted(p)) for p in ml}
    cl = {tuple(sorted(p)) for p in cl}
    changed = True
    while changed:
        changed = False
        for a, b in list(ml):
            for c, d in list(ml):
                shared = {a, b} & {c, d}
                if len(shared) == 1:
                    new = tuple(sorted(({a, b} | {c, d}) - shared))
                    if new not in ml:
                        ml.add(new)
                        changed = True
        for a, b in list(ml):
            for c, d in list(cl):
                shared = {a, b} & {c, d}
                if len(shared) == 1:
                    new = tuple(sorted(({a, b} | {c, d}) - shared))
                    if new not in cl:
                        cl.add(new)
                        changed = True
        if binary_cl_rule:
            for a, b in list(cl):
                for c, d in list(cl):
                    shared = {a, b} & {c, d}
                    if len(shared) == 1:
                        new = tuple(sorted(({a, b} | {c, d}) - shared))
                        if new not in ml:
                            ml.add(new)
                            changed = True
        if ml & cl:
            raise ConstraintConflictError(next(iter(ml & cl)))
    return ml, cl


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # Deterministic: smaller label becomes the root.
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


def reference_close(cs, binary_cl_rule=False):
    """`close` as a dict union-find with a Python fixpoint loop for the
    binary cannot-link rule, returning the closed pairs as (must_link,
    cannot_link). A conflict names the smallest cannot-link of
    `cs.cannot_link` that lies inside a must-link component."""
    uf = _UnionFind()
    for a, b in cs.must_link:
        uf.union(a, b)
    for a, b in cs.cannot_link:
        uf.find(a)
        uf.find(b)

    # Cannot-link edges between must-link components.
    comp_cl = set()
    for a, b in sorted(cs.cannot_link):
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            raise ConstraintConflictError((a, b))
        comp_cl.add((ra, rb) if ra < rb else (rb, ra))

    if binary_cl_rule:
        changed = True
        while changed:
            changed = False
            by_comp = {}
            for ra, rb in comp_cl:
                by_comp.setdefault(ra, set()).add(rb)
                by_comp.setdefault(rb, set()).add(ra)
            for mid, neighbors in by_comp.items():
                ns = sorted(neighbors)
                for i in range(len(ns)):
                    for j in range(i + 1, len(ns)):
                        if uf.find(ns[i]) != uf.find(ns[j]):
                            uf.union(ns[i], ns[j])
                            changed = True
            if changed:
                new_cl = set()
                for ra, rb in comp_cl:
                    ra, rb = uf.find(ra), uf.find(rb)
                    if ra == rb:
                        raise ConstraintConflictError(
                            _witness_pair(cs, uf, ra))
                    new_cl.add((ra, rb) if ra < rb else (rb, ra))
                comp_cl = new_cl

    members = {}
    for x in uf.parent:
        members.setdefault(uf.find(x), []).append(x)
    return _expand(members.values(),
                   [(members[uf.find(ra)], members[uf.find(rb)])
                    for ra, rb in comp_cl])


def reference_derive_from_labels(label_constraints):
    """The pair expansion of (item, class) constraints, as
    (must_link, cannot_link): every pair within a class and every pair
    across two classes. An item given two classes raises
    ConstraintConflictError."""
    by_item = {}
    for item, cls in label_constraints:
        if by_item.setdefault(item, cls) != cls:
            raise ConstraintConflictError((item, item))
    by_class = {}
    for item, cls in by_item.items():
        by_class.setdefault(cls, []).append(item)
    return _expand(by_class.values(),
                   itertools.combinations(by_class.values(), 2))


def reference_label_union(cs, label_constraints):
    """The pair form of `constraints.join_labels`: a set built from the
    union of `cs`'s pairs and every pair that the (item, class) constraints
    imply. A pair that is then both a must-link and a cannot-link raises
    ConstraintConflictError, as does an item given two classes."""
    ml, cl = reference_derive_from_labels(label_constraints)
    return ConstraintSet(must_link=cs.must_link | ml,
                         cannot_link=cs.cannot_link | cl)


def _expand(groups, group_pairs):
    """(must_link, cannot_link) of every pair inside a group and every pair
    joining the two groups of a group pair, each as (i, j) with i < j."""
    def canonical(pairs):
        return frozenset((a, b) if a < b else (b, a) for a, b in pairs)
    ml = (pair for group in groups
          for pair in itertools.combinations(group, 2))
    cl = (pair for g, h in group_pairs for pair in itertools.product(g, h))
    return canonical(ml), canonical(cl)


def _witness_pair(cs, uf, root):
    for a, b in sorted(cs.cannot_link):
        if uf.find(a) == uf.find(b):
            return (a, b)
    return (root, root)


def reference_pair_penalty(must_link, cannot_link, q):
    """Per-item sums of signed neighbour posteriors, one pair at a time:
    +q_j for each must-link partner j, -q_j for each cannot-link partner."""
    penalty = np.zeros_like(q)
    for pairs, sign in ((must_link, 1.0), (cannot_link, -1.0)):
        for a, b in pairs:
            penalty[a] += sign * q[b]
            penalty[b] += sign * q[a]
    return penalty


def reference_softmax_rows(logits):
    """Row softmax with numpy's row reductions: exp(logits - row max),
    divided by `sum(axis=1)`, on C-ordered rows (numpy sums each row of a
    C-ordered array pairwise, and the columns of an F-ordered one in
    sequence)."""
    logits = np.ascontiguousarray(logits, dtype=float)
    out = np.exp(logits - logits.max(axis=1, keepdims=True))
    out /= out.sum(axis=1, keepdims=True)
    return out


def reference_softmax_rows_in_order(logits):
    """Row softmax whose row sums add the columns in order, one Python-level
    add per column: exp(logits - row max), divided by that sum."""
    logits = np.asarray(logits, dtype=float)
    out = np.exp(logits - logits.max(axis=1, keepdims=True))
    total = out[:, 0].copy()
    for k in range(1, out.shape[1]):
        total += out[:, k]
    out /= total[:, None]
    return out


def reference_partner_sums(cs, values):
    """`ConstraintSet.partner_sums` as one `np.bincount` per scatter over
    the set's groups: members to groups, groups along the edges (edge_a's
    ends, then edge_b's) and each membership back to its item."""
    values = np.asarray(values)
    n_items, n_groups = len(values), np.bincount(cs._groups[1]).size
    member, group, edge_a, edge_b = cs._groups

    def scatter(index, rows, length):
        width = math.prod(rows.shape[1:])
        slots = (index[:, None] * width + np.arange(width)).ravel()
        return np.bincount(slots, rows.ravel(), length * width).reshape(
            length, *rows.shape[1:])
    rows = values[member]
    per_group = scatter(group, rows, n_groups)
    joined = scatter(np.concatenate([edge_a, edge_b]),
                     per_group[np.concatenate([edge_b, edge_a])], n_groups)
    return (scatter(member, per_group[group] - rows, n_items),
            scatter(member, joined[group], n_items))


def placed_partner_sums(cs, values):
    """(must, cannot) of `cs.partner_sums(values)`, each of the shape of
    `values`: its rows at their items, zeros elsewhere."""
    items, *sums = cs.partner_sums(values)
    placed = np.zeros((2,) + np.shape(values))
    placed[0][items], placed[1][items] = sums
    return placed[0], placed[1]


def reference_eta_search(rm, priors, cs, candidate_etas, opts):
    """The sequential eta search: one standalone `vb_ilc_fit` per candidate,
    in grid order, each from the shared initial posterior; the fewest
    violations win, ties going to the smallest candidate. Returns
    (best_eta, [(eta, n_violations), ...], best_fit)."""
    from crowdfuse import aggregators

    candidates = list(candidate_etas)
    if not candidates:
        raise ValueError("candidate eta list is empty")
    init_q = aggregators.initial_posterior(rm, opts)
    table = []
    best_key = best_fit = None
    for eta in candidates:
        run_opts = aggregators.FitOptions(
            max_iters=opts.max_iters, tol=opts.tol, eta=float(eta),
            seed=opts.seed, init="given_posterior", init_posterior=init_q)
        fit = aggregators.vb_ilc_fit(rm, priors, cs, run_opts)
        table.append((float(eta), fit.n_violations))
        key = (fit.n_violations, float(eta))
        if best_key is None or key < best_key:
            best_key, best_fit = key, fit
    return best_key[1], table, best_fit


def reference_response_matrix(n_items, n_annotators, entries, n_classes=None):
    """The dict form of response construction: validate each
    (annotator, item) -> label entry in turn, then sort the keys. Returns
    ((ann, item, label0), n_classes, responses_per_item)."""
    if n_items < 0 or n_annotators < 0:
        raise ValueError("negative dimensions")
    max_label = max(entries.values(), default=0)
    if n_classes is None:
        n_classes = max(max_label, 2)
    elif max_label > n_classes:
        raise ValueError(f"label {max_label} exceeds class count {n_classes}")
    for (m, n), label in entries.items():
        if not (0 <= m < n_annotators and 0 <= n < n_items
                and 1 <= label <= n_classes):
            raise ValueError(f"bad entry {(m, n)}: {label}")
    keys = sorted(entries)
    coords = (np.array([k[0] for k in keys], dtype=np.intp),
              np.array([k[1] for k in keys], dtype=np.intp),
              np.array([entries[k] - 1 for k in keys], dtype=np.intp))
    per_item = [0] * n_items
    for _, n in keys:
        per_item[n] += 1
    return coords, n_classes, np.array(per_item)


def response_triples(rm):
    """The set of (item id, annotator id, label) responses of `rm`, so that
    matrices whose indices number the same ids differently compare equal."""
    ann, item, label0 = rm.coords
    return {(rm.item_ids[n], rm.annotator_ids[m], lab + 1)
            for m, n, lab in zip(ann.tolist(), item.tolist(), label0.tolist())}


def reference_read_responses(path, n_classes=None):
    """The row-at-a-time responses reader: each field stripped, each label
    converted and range-checked as its row is read, and a repeated (item,
    annotator) pair reported at its second row as that row is read, so that
    the first faulty row in the file is the one reported. A blank or `0`
    label registers its item but not its annotator. Returns (item_ids,
    annotator_ids, (ann, item, label0)) with the triples sorted by
    (annotator, item)."""
    item_index, ann_index, triples = {}, {}, {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != \
                ["item", "annotator", "label"]:
            raise InputFormatError(
                f"{path}: expected header item,annotator,label")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InputFormatError(f"{path}:{lineno}: expected 3 fields")
            item_id, ann_id, label_str = (c.strip() for c in row)
            item = item_index.setdefault(item_id, len(item_index))
            if label_str in ("", "0"):
                continue
            try:
                label = int(label_str)
            except ValueError as exc:
                raise InputFormatError(
                    f"{path}:{lineno}: non-integer label {label_str!r}") from exc
            if label < 1 or (n_classes is not None and label > n_classes):
                raise InputFormatError(
                    f"{path}:{lineno}: label {label} out of range")
            ann = ann_index.setdefault(ann_id, len(ann_index))
            if (ann, item) in triples:
                raise InputFormatError(
                    f"{path}:{lineno}: duplicate response for item "
                    f"{item_id!r} by annotator {ann_id!r}")
            triples[ann, item] = label - 1
    pairs = sorted(triples)
    coords = tuple(np.array(column, dtype=np.intp) for column in (
        [ann for ann, _ in pairs], [item for _, item in pairs],
        [triples[pair] for pair in pairs]))
    return list(item_index), list(ann_index), coords


def reference_generate(spec):
    """The dense draw of a crowd: the truth from the first of three streams
    spawned from the spec's seed, then one (M, N) array of mask uniforms
    and one of label uniforms from the other two. Returns (ann, item,
    label0, truth0), the responses in (annotator, item) order and the
    zero-based truth."""
    streams = np.random.SeedSequence(spec.seed).spawn(3)
    rng_truth, rng_mask, rng_labels = (np.random.default_rng(s)
                                       for s in streams)
    y0 = rng_truth.choice(spec.n_classes, size=spec.n_items, p=spec.pi_star)
    shape = (spec.n_annotators, spec.n_items)
    mask = rng_mask.random(shape) < spec.mu[:, None]
    u = rng_labels.random(shape)
    cdf = np.cumsum(spec.gamma_star, axis=2)
    ann, item = np.nonzero(mask)
    label0 = np.argmax(u[ann, item][:, None] < cdf[ann, y0[item]], axis=1)
    return ann, item, label0, y0


def reference_plan_queries(posterior, n_constraints, seed=0):
    """The row-loop set-up of the query plan: each item's margin from a
    partition of its own row, and the partner pool rebuilt item by item,
    with the same sequential draws. Returns (uncertain, partners, queries,
    uniform_fallback_uncertain, uniform_fallback_partners)."""
    def draw(rng, weights, count):
        w = np.asarray(weights, dtype=float).copy()
        fallback = False
        if w.sum() <= 0:
            w = np.ones_like(w)
            fallback = True
        chosen = []
        for _ in range(count):
            total = w.sum()
            if total <= 0:
                w = np.where([i not in chosen for i in range(w.size)],
                             1.0, 0.0)
                total = w.sum()
                fallback = True
            idx = int(rng.choice(w.size, p=w / total))
            chosen.append(idx)
            w[idx] = 0.0
        return chosen, fallback

    n_items, n_classes = posterior.shape
    margins = []
    for row in posterior:
        top2 = np.partition(row, -2)[-2:]
        margins.append(float(top2[1] - top2[0]))
    margins = np.array(margins)
    rng = np.random.default_rng(seed)
    uncertain, fb_u = draw(rng, 1.0 - margins, n_constraints // n_classes)
    pool = np.array([i for i in range(n_items) if i not in set(uncertain)],
                    dtype=np.intp)
    partners = {}
    fb_c = False
    for n in uncertain:
        picks, fb = draw(rng, margins[pool], n_classes)
        fb_c = fb_c or fb
        partners[n] = [int(pool[i]) for i in picks]
    queries = tuple((n, p) for n in uncertain for p in partners[n])
    return tuple(uncertain), partners, queries, fb_u, fb_c


# A JSON string, or a JSON number.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


def repr_spelled(text: str) -> str:
    """`text` with each JSON number that has a fraction or an exponent
    written as `repr(float(number))`, the spelling of `json.dumps`; strings
    and integers are left as they are."""
    def spelled(match):
        token = match.group()
        if token.startswith('"') or not set(token) & set(".eE"):
            return token
        return repr(float(token))
    return _JSON_TOKEN.sub(spelled, text)
