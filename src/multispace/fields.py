"""Exact arithmetic for GF(q), q = p^e a prime power, with q <= 2**16.

An element of GF(p^e) is encoded as an integer in [0, q): the integer
a0 + a1*p + ... + a_{e-1}*p^(e-1) stands for the coefficient vector
(a0, ..., a_{e-1}) of a residue-class polynomial modulo the context's
irreducible modulus.  The encoding gives canonical equality/hashing and
is the wire format used everywhere (JSON, CLI, CSV).

Multiplication goes through log/antilog tables built once per context;
addition is XOR in characteristic 2 and digit-wise mod p otherwise.
All operations exist both for plain ints (scalar hot paths) and for
numpy arrays of encodings (vectorized linear algebra).
"""

import functools

import numpy as np

from .errors import (
    ContextMismatch,
    DivisionByZero,
    FieldTooLarge,
    FormatError,
    NotIrreducible,
    NotPrime,
)

FIELD_SIZE_LIMIT = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over GF(p), encoded as little-endian base-p integers.
# Only what context construction needs: degree, divmod, irreducibility.
# ---------------------------------------------------------------------------

def _pdeg(v: int, p: int) -> int:
    d = -1
    while v:
        v //= p
        d += 1
    return d


def _pcoeffs(v: int, p: int) -> list[int]:
    cs = []
    while v:
        cs.append(v % p)
        v //= p
    return cs


def _pmul(a: int, b: int, p: int) -> int:
    if p == 2:  # carry-less multiply on the bit encoding
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        return out
    ca, cb = _pcoeffs(a, p), _pcoeffs(b, p)
    if not ca or not cb:
        return 0
    cs = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                cs[i + j] = (cs[i + j] + x * y) % p
    out = 0
    for c in reversed(cs):
        out = out * p + c
    return out


def _pmod(a: int, m: int, p: int) -> int:
    dm = _pdeg(m, p)
    if dm < 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    cm = _pcoeffs(m, p)
    lead_inv = pow(cm[-1], p - 2, p)
    ca = _pcoeffs(a, p)
    while len(ca) - 1 >= dm and any(ca):
        da = len(ca) - 1
        if ca[da] == 0:
            ca.pop()
            continue
        f = (ca[da] * lead_inv) % p
        shift = da - dm
        for j, y in enumerate(cm):
            ca[shift + j] = (ca[shift + j] - f * y) % p
        ca.pop()
    out = 0
    for c in reversed(ca):
        out = out * p + c
    return out


def _is_irreducible(m: int, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    e = _pdeg(m, p)
    if e < 1:
        return False
    if _pcoeffs(m, p)[0] == 0 and e > 1:
        return False  # divisible by x
    for d in range(1, e // 2 + 1):
        base = p ** d
        for low in range(base):
            if _pmod(m, base + low, p) == 0:
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> int:
    if e == 1:
        return p  # the polynomial x
    base = p ** e
    for low in range(base):
        cand = base + low  # monic of degree e
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # cannot happen


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """Immutable description of GF(p^e) plus precomputed arithmetic tables.

    Construct through :func:`field` so equal parameters share one instance.
    Raw integer encodings are accepted everywhere; :class:`FieldElement`
    is the ergonomic wrapper used at API boundaries.
    """

    def __init__(self, p: int, e: int = 1, modulus: int | None = None):
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        # size first, so a huge p or e is refused before p ** e or a primality test
        if p >= 2 and (e >= FIELD_SIZE_LIMIT.bit_length() or p ** e > FIELD_SIZE_LIMIT):
            raise FieldTooLarge(f"q = {p}^{e} exceeds limit {FIELD_SIZE_LIMIT}")
        if not _is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p ** e
        if modulus is None:
            modulus = _smallest_irreducible(p, e)
        else:
            if _pdeg(modulus, p) != e or _pcoeffs(modulus, p)[-1] != 1:
                raise NotIrreducible(f"modulus {modulus} is not monic of degree {e}")
            if e > 1 and not _is_irreducible(modulus, p):
                raise NotIrreducible(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _slow_mul(self, a: int, b: int) -> int:
        return _pmod(_pmul(a, b, self.p), self.modulus, self.p)

    def _build_tables(self):
        p, q = self.p, self.q
        # Multiplicative generator, then log/antilog.
        if q == 2:
            g = 1
        else:
            fac = _prime_factors(q - 1)
            g = None
            for cand in range(2, q):
                if all(self._pow_slow(cand, (q - 1) // f) != 1 for f in fac):
                    g = cand
                    break
            assert g is not None
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._slow_mul(exp[i - 1], g)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = g
        self._exp = exp
        self._log = log
        self._exp_np = np.asarray(exp, dtype=np.int64)
        self._log_np = np.asarray(log, dtype=np.int64)
        inv = [0] * q
        for a in range(1, q):
            inv[a] = exp[(q - 1 - log[a]) % (q - 1)]
        self._inv = inv
        self._inv_np = np.asarray(inv, dtype=np.int64)
        if p == 2 or self.e == 1:
            self._dig = None
            self._neg = None
        else:
            # digit tables for characteristic-p addition in odd extensions
            vals = np.arange(q, dtype=np.int64)
            dig = np.empty((q, self.e), dtype=np.int64)
            for d in range(self.e):
                dig[:, d] = vals % p
                vals //= p
            self._dig = dig
            self._pvec = p ** np.arange(self.e, dtype=np.int64)
            self._neg = (((p - dig) % p) @ self._pvec)
        # zero/one shortcuts
        self.zero = 0
        self.one = 1

    def _pow_slow(self, a: int, k: int) -> int:
        out, base = 1, a
        while k:
            if k & 1:
                out = self._slow_mul(out, base)
            base = self._slow_mul(base, base)
            k >>= 1
        return out

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.e}), modulus={self.modulus})"

    @property
    def spec(self) -> str:
        """Canonical field-spec string, e.g. ``"2"`` or ``"2^2/7"``."""
        if self.e == 1:
            return str(self.p)
        return f"{self.p}^{self.e}/{self.modulus}"

    def check_same(self, other: "FieldCtx"):
        if self != other:
            raise ContextMismatch(f"field contexts differ: {self} vs {other}")

    def check_value(self, v: int):
        if not 0 <= v < self.q:
            raise ValueError(f"encoding {v} out of range for {self}")

    # -- scalar arithmetic on encodings ---------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % p
        out, mul = 0, 1
        while a or b:
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        return int(self._neg[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def frobenius(self, a: int, i: int, base: int | None = None) -> int:
        """a ** (base**i); ``base`` defaults to the characteristic p."""
        b = self.p if base is None else base
        self._check_power_base(b)
        if a == 0:
            return 0
        k = pow(b, i, self.q - 1) if self.q > 2 else 0
        return self._exp[(self._log[a] * k) % (self.q - 1)]

    def _check_power_base(self, base: int):
        # base must be p^j and q must be a power of base
        b, p = base, self.p
        j = 0
        while b > 1 and b % p == 0:
            b //= p
            j += 1
        if b != 1 or j == 0 or self.e % j != 0:
            raise ContextMismatch(f"{base} is not a valid tower base for {self}")

    # -- vectorized arithmetic on arrays of encodings --------------------------

    def add_arr(self, a, b):
        p = self.p
        if p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            return (a + b) % p
        digs = (self._dig[a] + self._dig[b]) % p
        return digs @ self._pvec

    def neg_arr(self, a):
        if self.p == 2:
            return np.array(a, copy=True)
        if self.e == 1:
            return (-np.asarray(a)) % self.p
        return self._neg[a]

    def sub_arr(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            return (np.asarray(a) - np.asarray(b)) % self.p
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b):
        a = np.asarray(a)
        b = np.asarray(b)
        if self.e == 1:
            return (a.astype(np.int64) * b.astype(np.int64)) % self.p
        la = self._log_np[a]
        lb = self._log_np[b]
        out = self._exp_np[(la + lb) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv_arr(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise DivisionByZero("inverse of zero")
        return self._inv_np[a]

    def pow_arr(self, a, k: int):
        """Elementwise a**k for integer k >= 0."""
        a = np.asarray(a)
        if k == 0:
            return np.ones_like(a)
        out = self._exp_np[(self._log_np[a] * (k % (self.q - 1))) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    def frobenius_arr(self, a, i: int, base: int | None = None):
        b = self.p if base is None else base
        self._check_power_base(b)
        a = np.asarray(a)
        k = pow(b, i, self.q - 1)
        out = self._exp_np[(self._log_np[a] * k) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    # -- element factory -------------------------------------------------------

    def element(self, v: int) -> "FieldElement":
        self.check_value(v)
        return FieldElement(v, self)


class FieldElement:
    """An element of a fixed GF(q), wrapping its integer encoding."""

    __slots__ = ("value", "ctx")

    def __init__(self, value: int, ctx: FieldCtx):
        self.value = value
        self.ctx = ctx

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            self.ctx.check_same(other.ctx)
            return other.value
        if isinstance(other, (int, np.integer)):
            self.ctx.check_value(int(other))
            return int(other)
        raise TypeError(f"cannot combine FieldElement with {type(other)!r}")

    def __add__(self, other):
        return FieldElement(self.ctx.add(self.value, self._coerce(other)), self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.ctx.sub(self.value, self._coerce(other)), self.ctx)

    def __rsub__(self, other):
        return FieldElement(self.ctx.sub(self._coerce(other), self.value), self.ctx)

    def __mul__(self, other):
        return FieldElement(self.ctx.mul(self.value, self._coerce(other)), self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.ctx.div(self.value, self._coerce(other)), self.ctx)

    def __neg__(self):
        return FieldElement(self.ctx.neg(self.value), self.ctx)

    def __pow__(self, k: int):
        return FieldElement(self.ctx.pow(self.value, k), self.ctx)

    def inverse(self):
        return FieldElement(self.ctx.inv(self.value), self.ctx)

    def frobenius(self, i: int = 1, base: int | None = None):
        return FieldElement(self.ctx.frobenius(self.value, i, base), self.ctx)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx == other.ctx and self.value == other.value
        if isinstance(other, (int, np.integer)):
            return self.value == int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.ctx))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"GF({self.ctx.p}^{self.ctx.e}:{self.value})" if self.ctx.e > 1 else f"GF({self.ctx.p}:{self.value})"


@functools.lru_cache(maxsize=None)
def field(p: int, e: int = 1, modulus: int | None = None) -> FieldCtx:
    """Cached factory for field contexts (same parameters -> same object)."""
    return FieldCtx(p, e, modulus)


def parse_field_spec(s: str) -> FieldCtx:
    """Parse ``"p"``, ``"p^e"`` or ``"p^e/modulus-int"`` into a context."""
    if not isinstance(s, str):
        raise FormatError(f"field spec {s!r} is not a string")
    s = s.strip()
    try:
        if "/" in s:
            head, mod_s = s.split("/", 1)
            modulus = int(mod_s)
        else:
            head, modulus = s, None
        if "^" in head:
            p_s, e_s = head.split("^", 1)
            p, e = int(p_s), int(e_s)
        else:
            p, e = int(head), 1
    except ValueError as exc:
        raise FormatError(f"bad field spec {s!r}") from exc
    if e < 1 or (modulus is not None and modulus < 1):
        raise FormatError(f"bad field spec {s!r}: degree and modulus must be positive")
    return field(p, e, modulus)


# ---------------------------------------------------------------------------
# Subfield embeddings GF(q) -> GF(q^l)
# ---------------------------------------------------------------------------

class Embedding:
    """Field homomorphism GF(p^e) -> GF(p^(e*l)), as a lookup table.

    The image of the small field's generator alpha is the smallest root
    (by encoding) of the small modulus inside the big field, which makes
    the embedding deterministic.  Construction verifies the homomorphism
    property exhaustively for small fields and on samples otherwise.
    """

    def __init__(self, small: FieldCtx, big: FieldCtx):
        if big.p != small.p or big.e % small.e != 0:
            raise ContextMismatch(f"{big} is not an extension of {small}")
        self.small = small
        self.big = big
        beta = self._find_root()
        self.root = beta
        # phi(sum c_d alpha^d) = sum c_d beta^d, c_d in GF(p)
        p, e = small.p, small.e
        tbl = np.zeros(small.q, dtype=np.int64)
        vals = np.arange(small.q, dtype=np.int64)
        beta_pow = 1
        for d in range(e):
            digit = (vals // p ** d) % p
            # digit in 0..p-1 encodes the same constant in the big field
            term = big.mul_arr(digit, np.full(small.q, beta_pow, dtype=np.int64))
            tbl = big.add_arr(tbl, term)
            beta_pow = big.mul(beta_pow, beta)
        self.table = tbl
        self._verify()

    def _find_root(self) -> int:
        big, small = self.big, self.small
        xs = np.arange(big.q, dtype=np.int64)
        acc = np.zeros(big.q, dtype=np.int64)
        for c in reversed(_pcoeffs(small.modulus, small.p) or [0]):
            acc = big.add_arr(big.mul_arr(acc, xs), np.full(big.q, c, dtype=np.int64))
        roots = np.nonzero(acc == 0)[0]
        if len(roots) == 0:
            raise NotIrreducible(f"modulus of {small} has no root in {big}")
        return int(roots[0])

    def _verify(self):
        small, big, t = self.small, self.big, self.table
        if len(np.unique(t)) != small.q or t[0] != 0 or t[1] != 1:
            raise AssertionError("embedding is not injective/unital")
        q = small.q
        if q <= 256:
            a = np.repeat(np.arange(q), q)
            b = np.tile(np.arange(q), q)
        else:
            rng = np.random.default_rng(0)
            a = rng.integers(0, q, size=4096)
            b = rng.integers(0, q, size=4096)
        adds = small.add_arr(a, b)
        muls = small.mul_arr(a, b)
        if not np.array_equal(t[adds], big.add_arr(t[a], t[b])):
            raise AssertionError("embedding fails additivity")
        if not np.array_equal(t[muls], big.mul_arr(t[a], t[b])):
            raise AssertionError("embedding fails multiplicativity")

    def embed_int(self, v: int) -> int:
        return int(self.table[v])

    def __call__(self, x: FieldElement) -> FieldElement:
        self.small.check_same(x.ctx)
        return FieldElement(int(self.table[x.value]), self.big)


@functools.lru_cache(maxsize=None)
def _embedding(small: FieldCtx, big: FieldCtx) -> Embedding:
    """The embedding of small into big, built once per field pair."""
    return Embedding(small, big)


@functools.lru_cache(maxsize=None)
def extension(ctx: FieldCtx, times: int) -> tuple[FieldCtx, Embedding]:
    """GF(q^times) built over the same prime, with the embedding of GF(q)."""
    big = field(ctx.p, ctx.e * times)
    return big, _embedding(ctx, big)
