"""Lockstep greedy and sampled decoding, batched teacher scoring, the
weighted logit backward pass and the counted cross-entropy against the
per-state references: ``rollout``, the enumeration oracle's path
probabilities, ``FrozenModelTeacher.q_values`` and ``LogitModel.grad_log_prob``."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstepkd import oracle, pipeline, returns as ret
from kstepkd.config import from_dict
from kstepkd.models import ModelArch, ModelStack, init_model, target_counts, zero_model
from kstepkd.seqmdp import (
    State, TerminalStateError, Vocabulary, decode, initial_state, rollout, step,
)
from kstepkd.teacher import FrozenModelTeacher, TeacherStack
from kstepkd.trainer import teacher_greedy_targets

from conftest import greedy_return, table_teacher

TOL = 1e-12


def _arch(kind, window, hidden):
    return ModelArch(kind, window=window, hidden=hidden if kind == "mlp1" else 0)


@st.composite
def instances(draw):
    """A vocabulary, a student, a teacher (own kind and window), a horizon and
    ragged conditioning prefixes (any non-EOS tokens, BOS included)."""
    size = draw(st.integers(3, 6))
    vocab = Vocabulary(size=size, bos_id=0, eos_id=size - 1)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(2):
        kind = draw(st.sampled_from(["linear", "mlp1"]))
        arch = _arch(kind, draw(st.integers(1, 3)), draw(st.integers(1, 5)))
        models.append(init_model(arch, size, rng, scale=draw(st.sampled_from([0.3, 1.0, 3.0]))))
    horizon = draw(st.integers(1, 12))
    prefixes = draw(
        st.lists(st.lists(st.integers(0, size - 2), max_size=4), min_size=1, max_size=6)
    )
    inputs = [initial_state(vocab, tuple(p)) for p in prefixes]
    return vocab, models[0], FrozenModelTeacher(models[1]), horizon, inputs


def _step_arrays(trajs, window):
    """Every step's context at ``window`` and action, trajectory by trajectory."""
    contexts = [s.state.last_tokens(window) for traj in trajs for s in traj.steps]
    actions = [s.action for traj in trajs for s in traj.steps]
    return np.array(contexts, dtype=np.int64).reshape(-1, window), np.array(actions)


def _close(a, b, bitwise):
    if bitwise:
        np.testing.assert_array_equal(a, b)
    else:
        np.testing.assert_allclose(a, b, rtol=0, atol=TOL)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_lockstep_decoder_matches_rollout(inst):
    vocab, student, teacher, horizon, inputs = inst
    for policy, score in ((student, student.batch_logits), (teacher, teacher.batch_q_values)):
        batch = decode(score, policy.window, inputs, horizon)
        for i, s0 in enumerate(inputs):
            traj = rollout(policy, s0, horizon, mode="greedy")
            n = int(batch.lengths[i])
            assert n == traj.num_steps
            assert tuple(batch.actions[i, :n].tolist()) == traj.actions
            # contexts at every window are slices of the token rows
            for w in (1, 2, 3, 5):
                got = batch.step_contexts(w)[i, :n]
                assert got.tolist() == [list(s.state.last_tokens(w)) for s in traj.steps]


class _Draws:
    """A stand-in generator that hands ``rollout`` given uniforms in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_sampled_decoder_matches_rollout(inst, seed):
    """Row i draws its step-t action by inverse CDF on u[i, t]: its actions,
    length and step contexts equal ``rollout(mode="sample")`` fed the
    uniforms of row i in turn, for every input twice."""
    vocab, student, teacher, horizon, inputs = inst
    initial = inputs * 2
    u = np.random.default_rng(seed).random((len(initial), horizon))
    for policy, score in ((student, student.batch_logits), (teacher, teacher.batch_q_values)):
        batch = decode(score, policy.window, initial, horizon, u)
        for i, s0 in enumerate(initial):
            traj = rollout(policy, s0, horizon, mode="sample", rng=_Draws(u[i]))
            n = traj.num_steps
            assert batch.lengths[i] == n
            assert tuple(batch.actions[i, :n].tolist()) == traj.actions
            for w in (1, 2, 3, 5):
                got = batch.step_contexts(w)[i, :n]
                assert got.tolist() == [list(s.state.last_tokens(w)) for s in traj.steps]


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_sampled_rows_decode_as_alone(inst, seed):
    """With the teacher's table as the scorer, which scores each row on its
    own, each row of a sampled decode is bitwise that row decoded alone on
    its own row of uniforms: no row's draws depend on the other rows."""
    vocab, student, teacher, horizon, inputs = inst
    initial = inputs * 2
    u = np.random.default_rng(seed).random((len(initial), horizon))
    batch = decode(teacher.batch_q_values, teacher.window, initial, horizon, u)
    for i, s0 in enumerate(initial):
        alone = decode(teacher.batch_q_values, teacher.window, [s0], horizon, u[i : i + 1])
        assert np.array_equal(batch.tokens[i, batch.prefix_width - alone.prefix_width :],
                              alone.tokens[0])
        assert batch.lengths[i] == alone.lengths[0]


@st.composite
def eos_heavy_populations(draw):
    """A stack of R policies whose EOS logit is raised, so that rows end at
    different steps, and B ragged conditioning prefixes per run."""
    size = draw(st.integers(3, 6))
    vocab = Vocabulary(size=size, bos_id=0, eos_id=size - 1)
    kind = draw(st.sampled_from(["linear", "mlp1"]))
    arch = _arch(kind, draw(st.integers(1, 3)), draw(st.integers(1, 5)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_runs, b = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    policies = []
    for _ in range(n_runs):
        policy = init_model(arch, size, rng, scale=1.0)
        params = policy.params.copy()
        params[-1] += draw(st.sampled_from([0.5, 1.5, 3.0]))  # the EOS output bias
        policies.append(policy.with_params(params))
    prefixes = draw(st.lists(st.lists(st.integers(0, size - 2), max_size=4),
                             min_size=n_runs * b, max_size=n_runs * b))
    inputs = [initial_state(vocab, tuple(p)) for p in prefixes]
    return policies, b, inputs, draw(st.integers(1, 10)), seed


@settings(max_examples=80, deadline=None)
@given(eos_heavy_populations())
def test_population_decode_matches_each_run_alone(case):
    """The population decode scores every row at every step, a finished one
    too, through the layout of its rows: each run's actions and lengths are
    bitwise those of the run decoded alone on its rows of uniforms, greedy
    and sampled, and each row's actions are its ``rollout``, fed its own row
    of uniforms when sampled."""
    policies, b, inputs, horizon, seed = case
    stack, window = ModelStack.of(policies), policies[0].window
    run = np.repeat(np.arange(len(policies)), b)
    u = np.random.default_rng(seed).random((len(inputs), horizon))
    for draws in (None, u):
        pop = decode(stack.layout(run).batch_logits, window, inputs, horizon, draws)
        for r, policy in enumerate(policies):
            rows = slice(r * b, (r + 1) * b)
            alone = decode(policy.batch_logits, window, inputs[rows], horizon,
                           None if draws is None else draws[rows])
            assert np.array_equal(pop.actions[rows], alone.actions)
            assert np.array_equal(pop.lengths[rows], alone.lengths)
            for i, s0 in enumerate(inputs[rows], start=r * b):
                if draws is None:
                    traj = rollout(policy, s0, horizon, mode="greedy")
                else:
                    traj = rollout(policy, s0, horizon, mode="sample", rng=_Draws(draws[i]))
                n = traj.num_steps
                assert pop.lengths[i] == n
                assert tuple(pop.actions[i, :n].tolist()) == traj.actions


@pytest.mark.slow
def test_sampled_decoder_matches_enumerated_path_probabilities():
    """Full-trajectory frequencies of one sampled batch against the exact
    path probabilities of every enumerated trajectory."""
    vocab = Vocabulary(size=3, bos_id=0, eos_id=2)
    policy = init_model(ModelArch("mlp1", window=2, hidden=3), 3, np.random.default_rng(5), 1.0)
    spec = oracle.EnumerationSpec(vocab, 4, initial_state(vocab, (1,)))
    n = 20_000
    batch = decode(policy.batch_logits, 2, [spec.initial] * n, spec.horizon,
                   np.random.default_rng(6).random((n, spec.horizon)))
    counts = Counter(
        tuple(row[:length]) for row, length in zip(batch.actions.tolist(), batch.lengths.tolist())
    )
    paths = oracle.enumerate_trajectories(spec, policy)
    assert set(counts) <= {traj.actions for traj, _ in paths}
    for traj, p in paths:
        z = (counts[traj.actions] - n * p) / np.sqrt(n * p * (1 - p))
        assert abs(z) < 4, (traj.actions, counts[traj.actions], n * p)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_batched_q_terms_and_returns_match_per_state(inst):
    vocab, student, teacher, horizon, inputs = inst
    bitwise = teacher.model.kind == "linear"
    batch = decode(student.batch_logits, student.window, inputs, horizon)
    q, m = ret.batch_q_terms(batch, teacher)
    g = ret.kstep_from_batch_terms(q, m, batch.lengths, 1)
    for i, s0 in enumerate(inputs):
        traj = rollout(student, s0, horizon, mode="greedy")
        n = traj.num_steps
        ref_q = np.array([teacher.q_values(s.state)[s.action] for s in traj.steps])
        ref_m = np.array([teacher.q_values(s.state).max() for s in traj.steps])
        _close(q[i, :n], ref_q, bitwise)
        _close(m[i, :n], ref_m, bitwise)
        assert not q[i, n:].any() and not m[i, n:].any() and not g[i, n:].any()
        _close(g[i, :n], ret.kstep_from_terms(ref_q, ref_m, 1), bitwise)
        # same terms in, same returns out: the vectorized recursion is exact
        np.testing.assert_array_equal(g[i, :n], ret.kstep_from_terms(q[i, :n], m[i, :n], 1))
    # sampled trajectories of ragged lengths, scored in one call, against
    # per-state terms along each row's actions
    sampled = decode(student.batch_logits, student.window, inputs, horizon,
                     np.random.default_rng(0).random((len(inputs), horizon)))
    q, m = ret.batch_q_terms(sampled, teacher)
    for i, s0 in enumerate(inputs):
        n = int(sampled.lengths[i])
        state, ref_q, ref_m = s0, [], []
        for a in sampled.actions[i, :n].tolist():
            qv = teacher.q_values(state)
            ref_q.append(qv[a])
            ref_m.append(qv.max())
            state = step(state, a)
        _close(q[i, :n], ref_q, bitwise)
        _close(m[i, :n], ref_m, bitwise)
        assert not q[i, n:].any() and not m[i, n:].any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bias_variance_rows_match_per_row_groups(seed):
    """The sweep's per-K bias and variance and its KL against per-input
    groups of per-row returns, from per-state terms along the same sampled
    rows (input-major), with a clip range the returns reach."""
    cfg = from_dict({"vocab_size": 5, "horizon": 6, "window": 2, "clip_range": [-3.0, 3.0]})
    rng = np.random.default_rng(seed)
    student = init_model(ModelArch("mlp1", window=2, hidden=3), 5, rng, scale=1.0)
    teacher = FrozenModelTeacher(init_model(ModelArch("linear", window=2), 5, rng, scale=1.0))
    inputs = [initial_state(cfg.vocab, p) for p in [(), (1,), (2, 3)]] * 6
    spi, k_list = 4, (1, 2, 4)
    rows, kl = pipeline.bias_variance_rows_for_student(
        cfg, student, teacher, inputs, spi, seed, k_list=k_list
    )

    initial = [s0 for s0 in inputs for _ in range(spi)]
    batch = decode(student.batch_logits, 2, initial, cfg.horizon,
                   np.random.default_rng([seed, 303]).random((len(initial), cfg.horizon)))
    rc = ret.ReturnConfig(clip_range=cfg.clip_range)
    terms, kl_terms = [], []
    for i, s0 in enumerate(initial):
        state, q, m = s0, [], []
        for a in batch.actions[i, : batch.lengths[i]].tolist():
            qv = teacher.q_values(state)
            q.append(qv[a])
            m.append(qv.max())
            if i < 16 * spi:
                sd, td = student.distribution(state), teacher.distribution(state)
                kl_terms.append(float(np.dot(sd.probs, sd.log_probs - td.log_probs)))
            state = step(state, a)
        terms.append((np.array(q), np.array(m)))
    assert abs(kl - sum(kl_terms) / len(kl_terms)) <= TOL
    g = np.array([ret.clip_returns(ret.kstep_from_terms(q, m, 1), rc)[0] for q, m in terms])
    for (k, bias, var), k_ref in zip(rows, k_list):
        gh = np.array([ret.clip_returns(ret.kstep_from_terms(q, m, k), rc)[0] for q, m in terms])
        groups = [slice(j * spi, (j + 1) * spi) for j in range(len(inputs))]
        assert k == k_ref
        assert abs(var - np.mean([gh[s].var(ddof=1) for s in groups])) <= TOL
        assert abs(bias - np.mean([(gh[s] - g[s]).mean() for s in groups])) <= TOL


def _reference_targets(teacher, inputs, horizon, window):
    contexts, targets = [], []
    for s0 in inputs:
        for s in rollout(teacher, s0, horizon, mode="greedy").steps:
            contexts.append(s.state.last_tokens(window))
            targets.append(s.action)
    return np.asarray(contexts, dtype=np.int64), np.asarray(targets, dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_trainer_greedy_paths_match_per_state(inst):
    vocab, student, teacher, horizon, inputs = inst
    ctx, tgt = teacher_greedy_targets(teacher, inputs, horizon, student.window)
    ref_ctx, ref_tgt = _reference_targets(teacher, inputs, horizon, student.window)
    np.testing.assert_array_equal(ctx, ref_ctx)
    np.testing.assert_array_equal(tgt, ref_tgt)
    total = 0.0
    for s0 in inputs:
        total += float(ret.actual_return(rollout(student, s0, horizon, mode="greedy"), teacher)[0])
    assert abs(greedy_return(student, teacher, inputs, horizon) - total / len(inputs)) <= TOL


@settings(max_examples=80, deadline=None)
@given(instances(), st.data())
def test_weighted_logit_grad_matches_per_step(inst, data):
    """One weighted backward pass against the per-state reference: the
    weighted sum of ``grad_log_prob``, each step's squared gradient norm and
    its log-probs, for linear and mlp1 policies."""
    vocab, student, teacher, horizon, inputs = inst
    rng = np.random.default_rng(0)
    # every input twice, so repeated contexts meet in the same scatter columns
    trajs = [rollout(student, s0, horizon, mode="sample", rng=rng) for s0 in inputs * 2]
    steps = [s for traj in trajs for s in traj.steps]
    weights = np.array(
        data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
                min_size=len(steps), max_size=len(steps),
            )
        )
    )
    for model in (student, teacher.model):
        contexts, actions = _step_arrays(trajs, model.window)
        scores = model.layout().scores(contexts, actions)
        per_step = [model.grad_log_prob(s.state, s.action) for s in steps]
        _close(scores.weighted_grad(weights)[0], sum(w * g for w, g in zip(weights, per_step)),
               bitwise=False)
        _close(scores.sq_norms(), [g @ g for g in per_step], bitwise=False)
        _close(scores.log_probs, [model.distribution(s.state).log_probs for s in steps],
               bitwise=False)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_counted_cross_entropy_matches_per_row(inst):
    """The cross-entropy over distinct contexts and target counts against
    the per-row mean -(1/N) sum_i log pi(t_i|c_i) and its gradient, with
    ``target_counts`` tallying every row exactly."""
    vocab, student, teacher, horizon, inputs = inst
    rng = np.random.default_rng(1)
    # every input three times, so contexts repeat with the same and other targets
    trajs = [rollout(student, s0, horizon, mode="sample", rng=rng) for s0 in inputs * 3]
    steps = [s for traj in trajs for s in traj.steps]
    for model in (student, teacher.model):
        contexts, targets = _step_arrays(trajs, model.window)
        distinct, counts = target_counts(contexts, targets, vocab.size)
        assert counts.sum() == len(steps)
        tally = Counter(zip(map(tuple, contexts.tolist()), targets.tolist()))
        assert len({c for c, _ in tally}) == len(distinct)
        for c, row in zip(map(tuple, distinct.tolist()), counts):
            assert row.tolist() == [tally[(c, a)] for a in range(vocab.size)]
        loss, grad = model.cross_entropy_grad(distinct, counts)
        n = len(steps)
        ref_loss = -sum(model.distribution(s.state).log_probs[s.action] for s in steps) / n
        ref_grad = -sum(model.grad_log_prob(s.state, s.action) for s in steps) / n
        assert abs(loss - ref_loss) <= TOL
        _close(grad, ref_grad, bitwise=False)


VOCAB = Vocabulary(size=4, bos_id=0, eos_id=3)


def test_ties_go_to_lowest_id():
    model = zero_model(ModelArch("linear", window=2), VOCAB.size)
    batch = decode(model.batch_logits, 2, [initial_state(VOCAB, (1, 2))], 5)
    assert batch.lengths.tolist() == [5]
    assert batch.actions.tolist() == [[0] * 5]


def test_decoder_error_paths():
    model = init_model(ModelArch("linear", window=2), VOCAB.size, np.random.default_rng(1))
    s0 = initial_state(VOCAB, (1,))
    with pytest.raises(ValueError, match="horizon"):
        decode(model.batch_logits, 2, [s0], 0)
    with pytest.raises(TerminalStateError):
        decode(model.batch_logits, 2, [s0, step(s0, VOCAB.eos_id)], 3)
    with pytest.raises(ValueError, match="at least one"):
        decode(model.batch_logits, 2, [], 3)
    other = Vocabulary(size=VOCAB.size + 1, eos_id=VOCAB.eos_id, bos_id=VOCAB.bos_id)
    with pytest.raises(ValueError, match="initial states must share one vocabulary"):
        decode(model.batch_logits, 2, [s0, initial_state(other, (1,))], 3)
    # an equal vocabulary that is another object is the same vocabulary
    twin = Vocabulary(size=VOCAB.size, eos_id=VOCAB.eos_id, bos_id=VOCAB.bos_id)
    assert twin is not VOCAB
    batch = decode(model.batch_logits, 2, [s0, initial_state(twin, (1,))], 3)
    assert np.array_equal(batch.tokens[0], batch.tokens[1])
    assert np.array_equal(batch.lengths, decode(model.batch_logits, 2, [s0, s0], 3).lengths)

    def bad_score(contexts):
        out = np.zeros((len(contexts), VOCAB.size))
        out[-1, 2] = np.inf
        return out

    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite log-probability"):
            decode(bad_score, 2, [s0, s0], 3)
    with pytest.raises(ValueError, match="shape"):
        decode(lambda c: np.zeros((len(c), 5)), 2, [s0], 3)

    # a sampled decode that fails at its third step stops there
    calls = []

    def late_bad_score(contexts):
        calls.append(len(contexts))
        out = np.zeros((len(contexts), VOCAB.size))
        out[:, VOCAB.eos_id] = -50.0  # no row ends
        if len(calls) == 3:
            out[-1, 2] = np.inf
        return out

    u = np.random.default_rng(7).random((2, 6))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite log-probability"):
            decode(late_bad_score, 2, [s0, s0], 6, u)
    assert calls == [2, 2, 2]


@pytest.mark.parametrize("shape", [(3, 4), (1, 4), (2, 3), (2, 5), (8,)],
                         ids=["rows+1", "rows-1", "steps-1", "steps+1", "flat"])
def test_decoder_refuses_uniforms_of_another_shape(shape):
    """Uniforms that are not one row of ``horizon`` steps per initial state
    raise ValueError before any scoring."""
    model = init_model(ModelArch("linear", window=2), VOCAB.size, np.random.default_rng(1))
    calls = []

    def score(contexts):
        calls.append(len(contexts))
        return model.batch_logits(contexts)

    s0 = initial_state(VOCAB, (1,))
    u = np.random.default_rng(7).random(shape)
    with pytest.raises(ValueError, match=rf"uniforms have shape \({shape[0]},.*expected \(2, 4\)"):
        decode(score, 2, [s0, s0], 4, u)
    assert calls == []


@pytest.mark.parametrize("token", [-1, 5, 7], ids=["minus-one", "V", "V+2"])
def test_decoder_refuses_prefix_tokens_outside_the_vocabulary(token):
    """A prefix token outside [0, V) raises ValueError before any scoring:
    an mlp1 student's table would wrap -1 into another row, and fail on V
    or more with a bare IndexError."""
    vocab = Vocabulary(size=5, bos_id=0, eos_id=4)
    model = init_model(_arch("mlp1", 2, 3), vocab.size, np.random.default_rng(2))
    calls = []

    def score(contexts):
        calls.append(len(contexts))
        return model.batch_logits(contexts)

    bad = [initial_state(vocab, (1,)), State(vocab, (1, token))]
    with pytest.raises(ValueError, match=rf"initial prefix token {token} outside \[0, 5\)"):
        decode(score, 2, bad, 3)
    assert calls == []


def test_stacked_teachers_score_each_row_by_its_own_teacher():
    """Gathers from a ``TeacherStack`` by each row's teacher are bitwise
    that teacher's own gathers."""
    rng = np.random.default_rng(3)
    teachers = [FrozenModelTeacher(init_model(_arch(kind, 2, 4), 5, rng, scale=1.0))
                for kind in ("mlp1", "linear", "mlp1")]
    contexts, actions = rng.integers(0, 5, size=(40, 2)), rng.integers(0, 5, size=40)
    member = rng.integers(0, 3, size=40)
    q, m = ret.q_terms(TeacherStack.of(teachers), contexts, actions, member)
    for j, teacher in enumerate(teachers):
        rows = member == j
        qt, mt = ret.q_terms(teacher, contexts[rows], actions[rows])
        assert q[rows].tobytes() == qt.tobytes() and m[rows].tobytes() == mt.tobytes()
    narrow = FrozenModelTeacher(init_model(_arch("linear", 1, 0), 5, rng))
    with pytest.raises(ValueError, match="share window and vocabulary"):
        TeacherStack.of([teachers[0], narrow])


def test_tabular_batch_lookups():
    q = {(0, 1): np.array([0.5, -1.0, 2.0, 0.0]), (1, 2): np.array([1.0, 1.0, -3.0, 0.25])}
    teacher = table_teacher(q, vocab_size=VOCAB.size, window=2)
    got = teacher.batch_q_values(np.array([[1, 2], [0, 1], [1, 2]]))
    np.testing.assert_array_equal(got, np.stack([q[(1, 2)], q[(0, 1)], q[(1, 2)]]))
    assert teacher.batch_q_values(np.zeros((0, 2), dtype=np.int64)).shape == (0, VOCAB.size)
    s = step(initial_state(VOCAB, (1,)), 2)
    qt, mt = ret.q_terms(teacher, np.array([[1, 2]]), np.array([2]))
    assert (qt[0], mt[0]) == (teacher.q_values(s)[2], teacher.q_values(s).max())


@pytest.mark.parametrize("kind", ["linear", "mlp1"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_q_terms_on_any_split_match_one_call(kind, data):
    # teacher scoring is a gather, so a row's terms are the same bits
    # whichever rows share its call and in whatever order
    size, window = data.draw(st.integers(3, 12)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    teacher = FrozenModelTeacher(init_model(_arch(kind, window, 4), size, rng, scale=1.0))
    n = data.draw(st.integers(0, 60))
    contexts = rng.integers(0, size, size=(n, window))
    actions = rng.integers(0, size, size=n)
    q, m = ret.q_terms(teacher, contexts, actions)
    qv = teacher.batch_q_values(contexts)
    assert q.tobytes() == qv[np.arange(n), actions].tobytes()
    assert m.tobytes() == qv.max(axis=1).tobytes()
    order = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    for part in np.split(order, cuts):
        qp, mp = ret.q_terms(teacher, contexts[part], actions[part])
        assert qp.tobytes() == q[part].tobytes() and mp.tobytes() == m[part].tobytes()
