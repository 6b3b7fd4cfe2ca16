"""Recursive-descent parser for the mini C-like language.

Grammar (EBNF sketch)::

    module     := (global_decl | function)*
    global_decl:= "global" type IDENT ("[" INT "]")? ("=" expr)? ";"
    function   := type IDENT "(" params? ")" block
    params     := type IDENT ("," type IDENT)*
    block      := "{" stmt* "}"
    stmt       := var_decl | if | for | while | return | break | continue
                | block | assign_or_expr ";"
    var_decl   := type IDENT ("[" INT "]")? ("=" expr)? ";"
    if         := "if" "(" expr ")" stmt ("else" stmt)?
    for        := "for" "(" simple? ";" expr? ";" simple? ")" stmt
    while      := "while" "(" expr ")" stmt
    simple     := lvalue "=" expr | call
    expr       := or ( "||" or )*              (usual C precedence below)

Expression precedence, loosest to tightest:
``||``, ``&&``, equality, relational, additive, multiplicative, unary,
postfix (call / index), primary.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend import ast_nodes as A
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import Token, TokenKind as K

_TYPE_KINDS = (K.KW_INT, K.KW_FLOAT, K.KW_VOID, K.KW_FUNCPTR)


class Parser:
    """Parses one translation unit.  Use :func:`parse_source` instead of
    instantiating directly unless you need token-level control."""

    def __init__(self, tokens: list[Token], source: str, filename: str) -> None:
        self._tokens = tokens
        self._pos = 0
        self._source = source
        self._filename = filename

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not K.EOF:
            self._pos += 1
        return tok

    def _check(self, kind: K) -> bool:
        return self._peek().kind is kind

    def _match(self, kind: K) -> Token | None:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: K, what: str) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {what}, found {tok.kind.value!r} ({tok.text!r})",
                tok.loc.line,
                tok.loc.col,
            )
        return self._advance()

    # -- top level ----------------------------------------------------------

    def parse_module(self) -> A.Module:
        mod = A.Module(
            loc=self._peek().loc,
            globals=[],
            functions=[],
            source=self._source,
            filename=self._filename,
        )
        while not self._check(K.EOF):
            if self._check(K.KW_GLOBAL):
                mod.globals.append(self._parse_global())
            else:
                mod.functions.append(self._parse_function())
        return mod

    def _parse_type(self) -> str:
        tok = self._peek()
        if tok.kind not in _TYPE_KINDS:
            raise ParseError(
                f"expected a type, found {tok.text!r}", tok.loc.line, tok.loc.col
            )
        self._advance()
        return tok.text

    def _parse_array_size(self, name: str) -> int | None:
        """The ``[N]`` suffix of a declaration of ``name``, if present.

        Every tier indexes modulo the length, so an empty array has no
        valid index: refused here, where the size is still a literal.
        """
        if not self._match(K.LBRACKET):
            return None
        size_tok = self._expect(K.INT_LIT, "array size")
        size = int(size_tok.text)
        if size < 1:
            raise ParseError(
                f"array {name!r} must have at least one element, not {size}",
                size_tok.loc.line, size_tok.loc.col,
            )
        self._expect(K.RBRACKET, "']'")
        return size

    def _parse_global(self) -> A.GlobalVar:
        loc = self._expect(K.KW_GLOBAL, "'global'").loc
        var_type = self._parse_type()
        name = self._expect(K.IDENT, "global variable name").text
        array_size = self._parse_array_size(name)
        init: A.Expr | None = None
        if self._match(K.ASSIGN):
            init = self._parse_expr()
        self._expect(K.SEMI, "';'")
        return A.GlobalVar(loc=loc, name=name, var_type=var_type, array_size=array_size, init=init)

    def _parse_function(self) -> A.FunctionDef:
        loc = self._peek().loc
        ret_type = self._parse_type()
        name = self._expect(K.IDENT, "function name").text
        self._expect(K.LPAREN, "'('")
        params: list[A.Param] = []
        if not self._check(K.RPAREN):
            while True:
                ploc = self._peek().loc
                ptype = self._parse_type()
                pname = self._expect(K.IDENT, "parameter name").text
                params.append(A.Param(loc=ploc, name=pname, var_type=ptype))
                if not self._match(K.COMMA):
                    break
        self._expect(K.RPAREN, "')'")
        body = self._parse_block()
        return A.FunctionDef(loc=loc, name=name, ret_type=ret_type, params=params, body=body)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> A.Block:
        loc = self._expect(K.LBRACE, "'{'").loc
        stmts: list[A.Stmt] = []
        while not self._check(K.RBRACE):
            if self._check(K.EOF):
                raise ParseError("unterminated block", loc.line, loc.col)
            stmts.append(self._parse_stmt())
        self._expect(K.RBRACE, "'}'")
        return A.Block(loc=loc, stmts=stmts)

    def _parse_stmt(self) -> A.Stmt:
        tok = self._peek()
        if tok.kind in (K.KW_INT, K.KW_FLOAT, K.KW_FUNCPTR):
            return self._parse_var_decl()
        if tok.kind is K.KW_IF:
            return self._parse_if()
        if tok.kind is K.KW_FOR:
            return self._parse_for()
        if tok.kind is K.KW_WHILE:
            return self._parse_while()
        if tok.kind is K.KW_RETURN:
            self._advance()
            value = None if self._check(K.SEMI) else self._parse_expr()
            self._expect(K.SEMI, "';'")
            return A.ReturnStmt(loc=tok.loc, value=value)
        if tok.kind is K.KW_BREAK:
            self._advance()
            self._expect(K.SEMI, "';'")
            return A.BreakStmt(loc=tok.loc)
        if tok.kind is K.KW_CONTINUE:
            self._advance()
            self._expect(K.SEMI, "';'")
            return A.ContinueStmt(loc=tok.loc)
        if tok.kind is K.LBRACE:
            return self._parse_block()
        stmt = self._parse_simple_stmt()
        self._expect(K.SEMI, "';'")
        return stmt

    def _parse_var_decl(self) -> A.VarDecl:
        loc = self._peek().loc
        var_type = self._parse_type()
        name = self._expect(K.IDENT, "variable name").text
        array_size = self._parse_array_size(name)
        init: A.Expr | None = None
        if self._match(K.ASSIGN):
            init = self._parse_expr()
        self._expect(K.SEMI, "';'")
        return A.VarDecl(loc=loc, name=name, var_type=var_type, array_size=array_size, init=init)

    def _parse_if(self) -> A.IfStmt:
        loc = self._expect(K.KW_IF, "'if'").loc
        self._expect(K.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(K.RPAREN, "')'")
        then_body = self._stmt_as_block(self._parse_stmt())
        else_body: A.Block | None = None
        if self._match(K.KW_ELSE):
            else_body = self._stmt_as_block(self._parse_stmt())
        return A.IfStmt(loc=loc, cond=cond, then_body=then_body, else_body=else_body)

    def _parse_for(self) -> A.ForStmt:
        loc = self._expect(K.KW_FOR, "'for'").loc
        self._expect(K.LPAREN, "'('")
        init = None if self._check(K.SEMI) else self._parse_simple_stmt()
        self._expect(K.SEMI, "';'")
        cond = None if self._check(K.SEMI) else self._parse_expr()
        self._expect(K.SEMI, "';'")
        step = None if self._check(K.RPAREN) else self._parse_simple_stmt()
        self._expect(K.RPAREN, "')'")
        body = self._stmt_as_block(self._parse_stmt())
        return A.ForStmt(loc=loc, init=init, cond=cond, step=step, body=body)

    def _parse_while(self) -> A.WhileStmt:
        loc = self._expect(K.KW_WHILE, "'while'").loc
        self._expect(K.LPAREN, "'('")
        cond = self._parse_expr()
        self._expect(K.RPAREN, "')'")
        body = self._stmt_as_block(self._parse_stmt())
        return A.WhileStmt(loc=loc, cond=cond, body=body)

    def _stmt_as_block(self, stmt: A.Stmt) -> A.Block:
        """Wrap a single statement in a Block so loop/if bodies are uniform."""
        if isinstance(stmt, A.Block):
            return stmt
        return A.Block(loc=stmt.loc, stmts=[stmt])

    def _parse_simple_stmt(self) -> A.Stmt:
        """An assignment or a bare expression (usually a call)."""
        loc = self._peek().loc
        expr = self._parse_expr()
        if self._match(K.ASSIGN):
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError("assignment target must be a variable or array element", loc.line, loc.col)
            value = self._parse_expr()
            return A.Assign(loc=loc, target=expr, value=value)
        return A.ExprStmt(loc=loc, expr=expr)

    # -- expressions ----------------------------------------------------------

    def _parse_expr(self) -> A.Expr:
        return self._parse_or()

    def _parse_or(self) -> A.Expr:
        left = self._parse_and()
        while self._check(K.OR):
            loc = self._advance().loc
            right = self._parse_and()
            left = A.BinOp(loc=loc, op="||", left=left, right=right)
        return left

    def _parse_and(self) -> A.Expr:
        left = self._parse_equality()
        while self._check(K.AND):
            loc = self._advance().loc
            right = self._parse_equality()
            left = A.BinOp(loc=loc, op="&&", left=left, right=right)
        return left

    def _parse_equality(self) -> A.Expr:
        left = self._parse_relational()
        while self._peek().kind in (K.EQ, K.NE):
            tok = self._advance()
            right = self._parse_relational()
            left = A.BinOp(loc=tok.loc, op=tok.text, left=left, right=right)
        return left

    def _parse_relational(self) -> A.Expr:
        left = self._parse_additive()
        while self._peek().kind in (K.LT, K.LE, K.GT, K.GE):
            tok = self._advance()
            right = self._parse_additive()
            left = A.BinOp(loc=tok.loc, op=tok.text, left=left, right=right)
        return left

    def _parse_additive(self) -> A.Expr:
        left = self._parse_multiplicative()
        while self._peek().kind in (K.PLUS, K.MINUS):
            tok = self._advance()
            right = self._parse_multiplicative()
            left = A.BinOp(loc=tok.loc, op=tok.text, left=left, right=right)
        return left

    def _parse_multiplicative(self) -> A.Expr:
        left = self._parse_unary()
        while self._peek().kind in (K.STAR, K.SLASH, K.PERCENT):
            tok = self._advance()
            right = self._parse_unary()
            left = A.BinOp(loc=tok.loc, op=tok.text, left=left, right=right)
        return left

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        if tok.kind is K.MINUS:
            self._advance()
            return A.UnaryOp(loc=tok.loc, op="-", operand=self._parse_unary())
        if tok.kind is K.NOT:
            self._advance()
            return A.UnaryOp(loc=tok.loc, op="!", operand=self._parse_unary())
        if tok.kind is K.AMP:
            self._advance()
            name = self._expect(K.IDENT, "function name after '&'").text
            return A.AddrOf(loc=tok.loc, func_name=name)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            if self._check(K.LPAREN) and isinstance(expr, A.VarRef):
                loc = self._advance().loc
                args: list[A.Expr] = []
                if not self._check(K.RPAREN):
                    while True:
                        args.append(self._parse_expr())
                        if not self._match(K.COMMA):
                            break
                self._expect(K.RPAREN, "')'")
                expr = A.CallExpr(loc=loc, callee=expr.name, args=args)
            elif self._check(K.LBRACKET) and isinstance(expr, A.VarRef):
                self._advance()
                index = self._parse_expr()
                self._expect(K.RBRACKET, "']'")
                expr = A.ArrayRef(loc=expr.loc, name=expr.name, index=index)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._peek()
        if tok.kind is K.INT_LIT:
            self._advance()
            return A.IntLit(loc=tok.loc, value=int(tok.text))
        if tok.kind is K.FLOAT_LIT:
            self._advance()
            return A.FloatLit(loc=tok.loc, value=float(tok.text))
        if tok.kind is K.STRING_LIT:
            self._advance()
            return A.StringLit(loc=tok.loc, value=tok.text)
        if tok.kind is K.IDENT:
            self._advance()
            return A.VarRef(loc=tok.loc, name=tok.text)
        if tok.kind is K.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(K.RPAREN, "')'")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.loc.line, tok.loc.col)


def parse_source(source: str, filename: str = "<string>") -> A.Module:
    """Parse program text into a :class:`~repro.frontend.ast_nodes.Module`.

    Node ids are numbered from 1 per translation unit, so parsing the same
    text twice yields identical ids — compilation outputs (sensor ids,
    instrumented source) are deterministic and therefore cacheable.
    """
    tokens = tokenize(source, filename)
    with A.fresh_node_ids():
        return Parser(tokens, source, filename).parse_module()
