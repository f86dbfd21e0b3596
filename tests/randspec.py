"""Deterministic generator of random specifications for round-trip tests."""

import random

from specsyn import dsl

KEYWORDS = [
    "user_port", "max_rows", "have_ssl", "have_open_ssl", "ulimit", "sync",
    "ssl_ca", "ssl_cert", "innodb_buffer", "key_cache", "datadir", "bind_address",
    "--ssl-mode", "log.level", "thread_pool_size", "wait_timeout",
]

UNITS = [None, None, None, "gb", "mb", "kb", "bytes", "ms", "s", "%", "connections"]

FORMAT_CLASSES = ["absolute path", "relative path", "email address", "ip address", "url", "domain name"]

TEXTS = ["ON", "utf8mb4", "row based", "strict mode"]


def random_number(rng: random.Random, unit=None, allow_unit=True) -> dsl.Number:
    if rng.random() < 0.25:
        magnitude = round(rng.uniform(-1000.0, 100000.0), rng.randint(1, 3))
    else:
        magnitude = rng.randint(-100, 100000)
    if allow_unit and unit is None:
        unit = rng.choice(UNITS)
    return dsl.Number(magnitude, unit)


def random_general_value(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return random_number(rng)
    if kind == 1:
        return dsl.Boolean(rng.random() < 0.5)
    if kind == 2:
        return dsl.KeywordRef(rng.choice(KEYWORDS))
    return dsl.Text(rng.choice(TEXTS))


def random_rule(rng: random.Random, relation=None) -> dsl.Rule:
    if relation is None:
        relation = rng.choice(list(dsl.Relation))
    key = rng.choice(KEYWORDS)
    if relation in (dsl.Relation.EQ, dsl.Relation.NEQ):
        return dsl.Rule(key, relation, (random_general_value(rng),))
    if relation in (dsl.Relation.GT, dsl.Relation.LT):
        return dsl.Rule(key, relation, (random_number(rng),))
    if relation is dsl.Relation.INTERVAL:
        unit = rng.choice(UNITS)
        a = random_number(rng, unit=unit, allow_unit=False)
        b = random_number(rng, unit=unit, allow_unit=False)
        lo, hi = sorted([a, b], key=lambda n: n.magnitude)
        return dsl.Rule(key, relation, (dsl.Number(lo.magnitude, unit), dsl.Number(hi.magnitude, unit)))
    if relation is dsl.Relation.SET_MEMBERSHIP:
        members = tuple(random_general_value(rng) for _ in range(rng.randint(2, 5)))
        return dsl.Rule(key, relation, members)
    if relation in (dsl.Relation.USE, dsl.Relation.RECOMMEND):
        return dsl.Rule(key, relation, ())
    if relation in (dsl.Relation.WITH, dsl.Relation.PREFER):
        return dsl.Rule(key, relation, (dsl.KeywordRef(rng.choice(KEYWORDS)),))
    if relation is dsl.Relation.STRING_FORMAT:
        return dsl.Rule(key, relation, (dsl.FormatClass(rng.choice(FORMAT_CLASSES)),))
    raise AssertionError(relation)


def random_specification(rng: random.Random) -> dsl.Specification:
    n = rng.choices([1, 2, 3, 4], weights=[6, 2, 1, 1])[0]
    rules = tuple(random_rule(rng) for _ in range(n))
    connectives = tuple(
        rng.choice([dsl.Connective.AND, dsl.Connective.OR]) for _ in range(n - 1)
    )
    return dsl.Specification(rules, connectives)


def specification_batch(seed: int, count: int):
    """A reproducible batch that exercises every relation at least once."""
    rng = random.Random(seed)
    specs = [
        dsl.single(random_rule(rng, relation))
        for relation in dsl.Relation
    ]
    while len(specs) < count:
        specs.append(random_specification(rng))
    return specs[:count]
